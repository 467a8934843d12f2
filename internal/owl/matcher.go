package owl

import (
	"fmt"

	"mdagent/internal/rdf"
)

// MatchMode selects how resource compatibility is decided. The paper
// argues (§3.3) that "simple syntax-based matching puts much strict
// unnecessary constraints, and semantics-based resource matching is much
// preferred"; both are implemented so the ablation benchmark can quantify
// the difference.
type MatchMode int

// Match modes.
const (
	// MatchSyntactic compares resource names/classes textually — the
	// strawman the paper argues against.
	MatchSyntactic MatchMode = iota + 1
	// MatchSemantic relates resources through the ontology's class
	// hierarchy (paper Rule 2: both "printer" types => compatible).
	MatchSemantic
)

func (m MatchMode) String() string {
	switch m {
	case MatchSyntactic:
		return "syntactic"
	case MatchSemantic:
		return "semantic"
	default:
		return "invalid"
	}
}

// Matcher decides resource compatibility against an ontology.
type Matcher struct {
	onto *Ontology
	mode MatchMode
}

// NewMatcher builds a matcher in the given mode.
func NewMatcher(o *Ontology, mode MatchMode) *Matcher {
	return &Matcher{onto: o, mode: mode}
}

// Mode returns the matcher's mode.
func (m *Matcher) Mode() MatchMode { return m.mode }

// Compatible reports whether dst can serve in place of src. Syntactic mode
// requires the exact same class name (and, when both declare a "name"
// attribute, the same name). Semantic mode accepts any dst whose class is
// related to src's through the hierarchy: identical, subclass, superclass,
// or declared equivalent.
func (m *Matcher) Compatible(src, dst Resource) bool {
	switch m.mode {
	case MatchSyntactic:
		if src.Class != dst.Class {
			return false
		}
		sn, sok := src.Attrs["name"]
		dn, dok := dst.Attrs["name"]
		if sok && dok && sn != dn {
			return false
		}
		return true
	case MatchSemantic:
		return m.onto.SubClassOf(dst.Class, src.Class) || m.onto.SubClassOf(src.Class, dst.Class)
	default:
		return false
	}
}

// CanSubstitute reports whether dst may be used as a stand-in for src at
// the destination: it must be compatible and src must admit substitution.
func (m *Matcher) CanSubstitute(src, dst Resource) bool {
	return src.Substitutable && m.Compatible(src, dst)
}

// RebindAction is the planner's verdict for one resource binding after
// migration (paper §3.3: "This requires a resource rebinding mechanism").
type RebindAction int

// Rebind actions.
const (
	// RebindUseLocal binds to an equivalent resource at the destination.
	RebindUseLocal RebindAction = iota + 1
	// RebindCarry transfers the resource bytes with the mobile agent.
	RebindCarry
	// RebindRemote keeps a remote binding to the source host (the paper's
	// "played remotely through URL in the original host").
	RebindRemote
	// RebindImpossible flags a resource that cannot be rebound at all.
	RebindImpossible
)

func (a RebindAction) String() string {
	switch a {
	case RebindUseLocal:
		return "use-local"
	case RebindCarry:
		return "carry"
	case RebindRemote:
		return "remote-url"
	case RebindImpossible:
		return "impossible"
	default:
		return "invalid"
	}
}

// Rebinding is the plan for one source resource.
type Rebinding struct {
	Source Resource
	Action RebindAction
	Target Resource // the destination stand-in when Action == RebindUseLocal
	Reason string   // human-readable explanation (agent decision trace)
}

// PlanRebinding decides how to rebind src given the resources available at
// the destination. A destination resource with src's own ID is src itself
// — the application is moving to the host that owns it (the way back from
// a remote-URL binding) — and is bound directly, whether or not src admits
// substitution. Otherwise the preference order follows the paper: use an
// equivalent local resource when the ontology says one exists; otherwise carry the
// resource if it is transferable; otherwise fall back to a remote binding
// if the resource can be served remotely (data resources); otherwise the
// rebinding is impossible (e.g. a database that is neither transferable
// nor substitutable, with no local twin).
func (m *Matcher) PlanRebinding(src Resource, destAvail []Resource) Rebinding {
	for _, cand := range destAvail {
		if cand.ID == src.ID {
			return Rebinding{
				Source: src,
				Action: RebindUseLocal,
				Target: cand,
				Reason: fmt.Sprintf("%s is hosted at the destination; binding to the resource itself", src.ID),
			}
		}
	}
	for _, cand := range destAvail {
		if m.CanSubstitute(src, cand) {
			return Rebinding{
				Source: src,
				Action: RebindUseLocal,
				Target: cand,
				Reason: fmt.Sprintf("%s at destination is %s-compatible with %s", cand.ID, m.mode, src.ID),
			}
		}
	}
	if src.Transferable {
		return Rebinding{
			Source: src,
			Action: RebindCarry,
			Reason: fmt.Sprintf("no destination equivalent; %s is transferable (%d bytes)", src.ID, src.SizeBytes),
		}
	}
	if m.onto.IsA(src.Term(), dataClass) {
		return Rebinding{
			Source: src,
			Action: RebindRemote,
			Reason: fmt.Sprintf("%s is untransferable data; serving via URL from host %s", src.ID, src.Host),
		}
	}
	return Rebinding{
		Source: src,
		Action: RebindImpossible,
		Reason: fmt.Sprintf("%s is neither substitutable here, transferable, nor remotely servable", src.ID),
	}
}

// dataClass is the imcl:Data class; untransferable resources under it can
// still be served remotely by URL from the source host.
var dataClass = rdf.IMCL("Data")
