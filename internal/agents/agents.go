// Package agents implements MDAgent's agent layer (paper §4.3): the
// autonomous agents (AAs) that listen to context events, reason over
// profiles, registry information and rules to decide whether, where and
// what to migrate; and the mobile agents (MAs) that wrap application
// components and perform the migration. "They communicate through message
// passing": the AA sends the MA manager an ACL Request carrying a move
// order, the MA executes it through the migration engine and replies with
// the outcome. The separation of concerns mirrors the paper's design —
// "reasoning functionalities are separated and incorporated into specific
// autonomous agents" while MAs handle transmission and synchronization.
package agents

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/platform"
	"mdagent/internal/rdf"
	"mdagent/internal/rules"
	"mdagent/internal/space"
	"mdagent/internal/transport"
)

// MobilityOntology is the ACL ontology tag for mobility conversations.
const MobilityOntology = "mdagent-mobility"

// TopicMigrated is published by the agent layer on a completed move (the
// canonical string lives in ctxkernel's typed-event catalog; the control
// plane's Migrate shares it, so a Watch stream sees agent- and
// operator-driven moves identically).
const TopicMigrated = ctxkernel.TopicAppMigrated

// MoveOrder is the AA -> MA command payload.
type MoveOrder struct {
	App       string
	DestHost  string
	Mode      migrate.Mode
	CloneName string // clone-dispatch only
	Binding   migrate.BindingMode
	Match     owl.MatchMode
	Reason    string // decision trace from the rule engine
}

// MoveResult is the MA -> AA outcome payload.
type MoveResult struct {
	Report migrate.Report
	Err    string
}

// MobileAgentBody is the MA manager: it executes move orders against the
// local migration engine. It is deliberately stateless between orders, so
// it needs no Snapshot/Restore of its own.
type MobileAgentBody struct {
	Engine *migrate.Engine
}

var _ platform.Body = (*MobileAgentBody)(nil)

// Setup registers the order-handling behaviour.
func (m *MobileAgentBody) Setup(a *platform.Agent) error {
	tmpl := platform.MatchAnd(platform.MatchPerformative(platform.Request), platform.MatchOntology(MobilityOntology))
	a.AddBehaviour(platform.MessageHandler(tmpl, func(a *platform.Agent, msg platform.ACLMessage) {
		var order MoveOrder
		if err := transport.Decode(msg.Content, &order); err != nil {
			m.reply(a, msg, MoveResult{Err: err.Error()})
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		var rep migrate.Report
		var err error
		switch order.Mode {
		case migrate.CloneDispatch:
			rep, err = m.Engine.CloneDispatch(ctx, order.App, order.DestHost, order.CloneName, order.Match)
		default:
			rep, err = m.Engine.FollowMe(ctx, order.App, order.DestHost, order.Binding, order.Match)
		}
		res := MoveResult{Report: rep}
		if err != nil {
			res.Err = err.Error()
		}
		m.reply(a, msg, res)
	}))
	return nil
}

func (m *MobileAgentBody) reply(a *platform.Agent, msg platform.ACLMessage, res MoveResult) {
	perf := platform.Inform
	if res.Err != "" {
		perf = platform.Failure
	}
	content, err := transport.Encode(res)
	if err != nil {
		// An unencodable result must still answer, or the AA waits out its
		// whole timeout; the error text is the Failure's content.
		perf, content = platform.Failure, []byte(err.Error())
	}
	_ = a.Send(msg.Reply(perf, content))
}

// Policy configures one autonomous agent's decision-making.
type Policy struct {
	User          string              // the user this AA serves
	App           string              // the application it manages
	Binding       migrate.BindingMode // normally adaptive
	Match         owl.MatchMode       // normally semantic
	MaxRTTMillis  float64             // paper Rule 3 threshold (1000 ms)
	SuspendOnExit bool                // suspend the app when the user leaves
}

// DefaultPolicy returns the paper's defaults for a (user, app) pair.
func DefaultPolicy(user, appName string) Policy {
	return Policy{
		User: user, App: appName,
		Binding: migrate.BindingAdaptive, Match: owl.MatchSemantic,
		MaxRTTMillis: 1000, SuspendOnExit: true,
	}
}

// Locator reports a user's current fused location; *ctxkernel.Fusion
// satisfies it.
type Locator interface {
	Location(user string) (string, bool)
}

// AutonomousBody is the AA: subscribed to the context kernel, it reacts
// to the user's movement, evaluates the move rule over an RDF fact base,
// and orders the MA to migrate. Its decisions are explainable: each order
// carries the rule derivation that justified it.
//
// An AA also re-evaluates when its application *arrives* on its host
// (app.migrated events): if the user has meanwhile moved on, the next hop
// is ordered immediately. This closes the race between a fast-moving user
// and an in-flight migration and is what makes multi-hop follow-me work.
type AutonomousBody struct {
	Policy  Policy
	Kernel  *ctxkernel.Kernel
	Dir     *space.Directory
	Net     *netsim.Network
	Engine  *migrate.Engine
	MAName  string  // mobile agent to command
	Locator Locator // optional: current-location source for re-evaluation

	ruleSet []rules.Rule
	agent   *platform.Agent
}

var _ platform.Body = (*AutonomousBody)(nil)

// moveRule is the Fig. 6-style decision rule the AA evaluates: the user
// entered a room served by a different host and the network is good
// (response time under the threshold) => move the application there.
const moveRule = `
[MoveRule: (?u imcl:locatedIn ?room), (?room imcl:servedBy ?dest),
           (?app imcl:hostedOn ?cur), notEqual(?dest, ?cur),
           (?n imcl:responseTime ?t), lessThan(?t, ?limit)
           -> (?app imcl:moveTo ?dest)]
`

// Setup subscribes to the kernel and installs the event behaviour.
func (b *AutonomousBody) Setup(a *platform.Agent) error {
	b.agent = a
	ns := rdf.NewNamespaces()
	parsed, err := rules.Parse(moveRule, ns)
	if err != nil {
		return err
	}
	b.ruleSet = parsed

	// Context events are re-posted into the agent's mailbox so reasoning
	// runs on the agent's own scheduler, not the kernel publisher.
	repost := func(ev ctxkernel.Event) {
		content, err := transport.Encode(ev)
		if err != nil {
			return
		}
		a.Post(platform.ACLMessage{
			Performative: platform.Inform,
			Receiver:     a.Name(),
			Ontology:     "mdagent-context",
			ReplyWith:    ev.Topic,
			Content:      content,
		})
	}
	b.Kernel.Subscribe("user.*", func(ev ctxkernel.Event) {
		if ev.Attr(ctxkernel.AttrUser) != b.Policy.User {
			return
		}
		repost(ev)
	})
	// Arrival of the managed app anywhere triggers re-evaluation here.
	b.Kernel.Subscribe(TopicMigrated, func(ev ctxkernel.Event) {
		if ev.Attr("app") != b.Policy.App {
			return
		}
		repost(ev)
	})
	// Failover re-homing is an arrival too: when the cluster layer
	// relaunches the managed app on this AA's host, the AA re-attaches —
	// it re-evaluates immediately so a user who moved on during the
	// outage is chased without waiting for their next movement event.
	b.Kernel.Subscribe(ctxkernel.TopicClusterRehomed, func(ev ctxkernel.Event) {
		if ev.Attr("app") != b.Policy.App {
			return
		}
		repost(ev)
	})

	tmpl := platform.MatchAnd(platform.MatchPerformative(platform.Inform), platform.MatchOntology("mdagent-context"))
	a.AddBehaviour(platform.MessageHandler(tmpl, func(a *platform.Agent, msg platform.ACLMessage) {
		var ev ctxkernel.Event
		if err := transport.Decode(msg.Content, &ev); err != nil {
			return
		}
		b.handleEvent(ev)
	}))
	return nil
}

func (b *AutonomousBody) handleEvent(ev ctxkernel.Event) {
	switch ev.Topic {
	case ctxkernel.TopicUserLeft:
		if !b.Policy.SuspendOnExit {
			return
		}
		// Paper §4.3: "autonomous agents will capture this information and
		// interpret it as the user will leave the room and inform the
		// coordinator", which suspends the app after a snapshot.
		if inst, ok := b.Engine.App(b.Policy.App); ok {
			if _, err := inst.Snapshots().Record("user-left", ev.At); err == nil {
				_ = inst.Suspend()
			}
		}
	case ctxkernel.TopicUserEntered:
		b.decideAndOrder(ev)
	case TopicMigrated, ctxkernel.TopicClusterRehomed:
		// The app just landed somewhere — by migration or by failover
		// re-homing. If it landed here and the user is already in a room
		// served elsewhere, chase them.
		b.reevaluate(ev)
	}
}

// reevaluate re-runs the move decision as if the user had just entered
// their current room — the arrival-side half of multi-hop follow-me and
// the agent layer's re-attachment after failover.
func (b *AutonomousBody) reevaluate(ev ctxkernel.Event) {
	if b.Locator == nil {
		return
	}
	if _, ok := b.Engine.App(b.Policy.App); !ok {
		return
	}
	room, ok := b.Locator.Location(b.Policy.User)
	if !ok {
		return
	}
	synth := ctxkernel.Event{
		Topic: ctxkernel.TopicUserEntered, At: ev.At, Source: "aa-reevaluate",
		Attrs: map[string]string{ctxkernel.AttrUser: b.Policy.User, ctxkernel.AttrRoom: room},
	}
	b.decideAndOrder(synth)
}

// decideAndOrder builds the fact base, runs the move rule, and commands
// the MA when a move action is derived.
func (b *AutonomousBody) decideAndOrder(ev ctxkernel.Event) {
	room := ev.Attr(ctxkernel.AttrRoom)
	inst, ok := b.Engine.App(b.Policy.App)
	if !ok {
		return // app not (or no longer) hosted here
	}
	destHost, ok := b.Dir.HostForRoom(room)
	if !ok {
		return
	}
	curHost := inst.Host()
	if destHost == curHost {
		// Same host serves the new room: just resume if suspended.
		if inst.Coordinator().Frozen() {
			_ = inst.Resume()
		}
		return
	}

	// Fact base for the rule engine (paper §4.4's reasoning step).
	g := rdf.NewGraph()
	g.Add(rdf.T(rdf.IMCL(b.Policy.User), rdf.IMCL("locatedIn"), rdf.IMCL(room)))
	g.Add(rdf.T(rdf.IMCL(room), rdf.IMCL("servedBy"), rdf.IMCL(destHost)))
	g.Add(rdf.T(rdf.IMCL(b.Policy.App), rdf.IMCL("hostedOn"), rdf.IMCL(curHost)))
	rtt := b.observedRTT(curHost, destHost)
	g.Add(rdf.T(rdf.IMCL("net1"), rdf.IMCL("responseTime"), rdf.Float(rtt)))

	// Bind the policy threshold into the rule.
	bound := bindLimit(b.ruleSet, b.Policy.MaxRTTMillis)
	eng, err := rules.NewEngine(bound)
	if err != nil {
		return
	}
	res, err := eng.Infer(g)
	if err != nil {
		return
	}
	moves := g.Objects(rdf.IMCL(b.Policy.App), rdf.IMCL("moveTo"))
	if len(moves) == 0 {
		b.Kernel.PublishTyped(b.agent.Name(), ctxkernel.AppMigrateFailedEvent{
			App: b.Policy.App, Dest: destHost,
			Reason: fmt.Sprintf("rule did not fire (rtt %.0f ms, limit %.0f)", rtt, b.Policy.MaxRTTMillis),
			At:     ev.At,
		})
		return
	}
	reason := fmt.Sprintf("MoveRule fired (%d derivations; rtt %.0f ms < %.0f)", len(res.Derivations), rtt, b.Policy.MaxRTTMillis)
	b.order(ev, MoveOrder{
		App: b.Policy.App, DestHost: destHost, Mode: migrate.FollowMe,
		Binding: b.Policy.Binding, Match: b.Policy.Match, Reason: reason,
	})
}

// observedRTT prefers the engine's live estimate; absent a network model
// it reports 0 (always under threshold).
func (b *AutonomousBody) observedRTT(from, to string) float64 {
	if b.Net == nil {
		return 0
	}
	rtt, err := b.Net.ResponseTime(from, to)
	if err != nil {
		return 0
	}
	return float64(rtt.Milliseconds())
}

// bindLimit substitutes the policy threshold for the ?limit variable.
func bindLimit(rs []rules.Rule, limitMs float64) []rules.Rule {
	lit := rdf.TypedLit(strconv.FormatFloat(limitMs, 'f', -1, 64), rdf.XSDDouble)
	out := make([]rules.Rule, len(rs))
	for i, r := range rs {
		nr := r
		nr.Body = make([]rules.Clause, len(r.Body))
		copy(nr.Body, r.Body)
		for j, c := range nr.Body {
			if c.Kind != rules.ClauseBuiltin {
				continue
			}
			args := make([]rdf.Term, len(c.Args))
			for k, arg := range c.Args {
				if arg.IsVar() && arg.Value == "limit" {
					args[k] = lit
				} else {
					args[k] = arg
				}
			}
			nr.Body[j].Builtin = c.Builtin
			nr.Body[j].Args = args
			nr.Body[j].Kind = rules.ClauseBuiltin
		}
		out[i] = nr
	}
	return out
}

// order sends the MA a move request and publishes the outcome.
func (b *AutonomousBody) order(ev ctxkernel.Event, order MoveOrder) {
	failed := func(msg string) ctxkernel.AppMigrateFailedEvent {
		return ctxkernel.AppMigrateFailedEvent{
			App: order.App, Dest: order.DestHost, Reason: order.Reason,
			Error: msg, At: ev.At,
		}
	}
	content, err := transport.Encode(order)
	if err != nil {
		b.Kernel.PublishTyped(b.agent.Name(), failed(err.Error()))
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	reply, err := b.agent.RequestReply(ctx, platform.ACLMessage{
		Performative: platform.Request,
		Receiver:     b.MAName,
		Ontology:     MobilityOntology,
		Protocol:     "fipa-request",
		Content:      content,
	})
	if err != nil {
		b.Kernel.PublishTyped(b.agent.Name(), failed(err.Error()))
		return
	}
	var res MoveResult
	if derr := transport.Decode(reply.Content, &res); derr != nil {
		// A Failure the MA could not encode carries its error as text.
		msg := string(reply.Content)
		if reply.Performative != platform.Failure {
			msg = fmt.Sprintf("agents: undecodable %s reply from %s: %v", reply.Performative, b.MAName, derr)
		}
		b.Kernel.PublishTyped(b.agent.Name(), failed(msg))
		return
	}
	if res.Err != "" {
		b.Kernel.PublishTyped(b.agent.Name(), failed(res.Err))
		return
	}
	b.Kernel.PublishTyped(b.agent.Name(), ctxkernel.AppMigratedEvent{
		App: order.App, Dest: order.DestHost,
		Mode: order.Mode.String(), Reason: order.Reason,
		SuspendMs: res.Report.Suspend.Milliseconds(),
		MigrateMs: res.Report.Migrate.Milliseconds(),
		ResumeMs:  res.Report.Resume.Milliseconds(),
		Bytes:     res.Report.BytesMoved, At: ev.At,
	})
}

// Managers bundle creation of the two agent kinds in a container,
// mirroring the paper's AA manager and MA manager (Fig. 2).

// StartMobileAgent creates the MA manager agent in a container.
func StartMobileAgent(c *platform.Container, name string, eng *migrate.Engine) (*platform.Agent, error) {
	a, err := c.CreateAgent(name, &MobileAgentBody{Engine: eng})
	if err != nil {
		return nil, fmt.Errorf("agents: start MA: %w", err)
	}
	return a, nil
}

// StartAutonomousAgent creates an AA bound to a policy.
func StartAutonomousAgent(c *platform.Container, name string, body *AutonomousBody) (*platform.Agent, error) {
	a, err := c.CreateAgent(name, body)
	if err != nil {
		return nil, fmt.Errorf("agents: start AA: %w", err)
	}
	return a, nil
}
