package registry

import (
	"context"
	"sort"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// Fast-frame codecs of the records a follow-me leg carries — the one
// encoder and decoder of each, shared by the registry's two follow-me
// ops, its lookup and the migration check-in — and the frames of those
// three ops.
//
// A wsdl.Description is
//
//	string xml-space, string xml-local, string name, string provider,
//	string version, string doc,
//	list of services (string name, list of ports (string name,
//	  list of operations (string name, string input, string output))),
//	int min-screen-width, int min-screen-height, int min-memory-mb,
//	bool needs-audio, bool needs-display, string platform,
//	list of preferences (string key, string value)
//
// an owl.Resource is
//
//	string id, int class kind, string class value, string class datatype,
//	bool transferable, bool substitutable, string host, string location,
//	int size, list of attrs (string key, string value) in key order
//
// an owl.Rebinding is resource source, int action, resource target,
// string reason; an AppRecord is string name, string host, string space,
// description, list of component strings, bool running; a MovePlan is
// record dest, bool dest-found, list of rebindings. A list is a uvarint
// count, then its elements (transport.AppendList); an empty list or map
// reads as nil, as gob decodes one. Maps are written in key order, so a
// value has one encoding.
//
// registry.plan-move is a fast frame both ways, its only encoding:
//
//	OpPlanMove       string app, string dest-host, list of resources, int mode
//	OpPlanMoveReply  move plan
//
// and so are registry.move-app and registry.lookup-app:
//
//	OpMoveApp         record, string from
//	OpMoveAppReply    bool source-demoted
//	OpLookupApp       string app, string host
//	OpLookupAppReply  record, bool found
//
// A center of the build before refuses the v2 version byte with
// ErrVersion before it reads the body, and this build refuses a sealed
// v1 body the same way.

// The smallest encoding of each list element, in bytes: every string
// and count takes one at least. ReadList bounds a claimed count by it.
const (
	minPair      = 2  // a preference or an attr: key, value
	minOperation = 3  // name, input, output
	minPort      = 2  // name, operations
	minService   = 2  // name, ports
	minResource  = 10 // five strings, two ints, two bools, the attrs count
	minRebinding = 2*minResource + 2
)

// AppendDescription appends d.
func AppendDescription(b []byte, d *wsdl.Description) []byte {
	b = transport.AppendString(b, d.XMLName.Space)
	b = transport.AppendString(b, d.XMLName.Local)
	b = transport.AppendString(b, d.Name)
	b = transport.AppendString(b, d.Provider)
	b = transport.AppendString(b, d.Version)
	b = transport.AppendString(b, d.Doc)
	b = transport.AppendList(b, d.Services, appendService)
	q := &d.Requires
	b = transport.AppendInt(b, int64(q.MinScreenWidth))
	b = transport.AppendInt(b, int64(q.MinScreenHeight))
	b = transport.AppendInt(b, int64(q.MinMemoryMB))
	b = transport.AppendBool(b, q.NeedsAudio)
	b = transport.AppendBool(b, q.NeedsDisplay)
	b = transport.AppendString(b, q.Platform)
	return transport.AppendList(b, d.Preferences, func(b []byte, p wsdl.Preference) []byte {
		return transport.AppendString(transport.AppendString(b, p.Key), p.Value)
	})
}

func appendService(b []byte, s wsdl.Service) []byte {
	b = transport.AppendString(b, s.Name)
	return transport.AppendList(b, s.Ports, func(b []byte, p wsdl.Port) []byte {
		b = transport.AppendString(b, p.Name)
		return transport.AppendList(b, p.Operations, func(b []byte, op wsdl.Operation) []byte {
			b = transport.AppendString(b, op.Name)
			b = transport.AppendString(b, op.Input)
			return transport.AppendString(b, op.Output)
		})
	})
}

// ReadDescription reads AppendDescription's layout.
func ReadDescription(r *transport.FastReader) wsdl.Description {
	var d wsdl.Description
	d.XMLName.Space = r.String()
	d.XMLName.Local = r.String()
	d.Name = r.String()
	d.Provider = r.String()
	d.Version = r.String()
	d.Doc = r.String()
	d.Services = transport.ReadList(r, minService, readService)
	q := &d.Requires
	q.MinScreenWidth = int(r.Int())
	q.MinScreenHeight = int(r.Int())
	q.MinMemoryMB = int(r.Int())
	q.NeedsAudio = r.Bool()
	q.NeedsDisplay = r.Bool()
	q.Platform = r.String()
	d.Preferences = transport.ReadList(r, minPair, func(r *transport.FastReader) wsdl.Preference {
		return wsdl.Preference{Key: r.String(), Value: r.String()}
	})
	return d
}

func readService(r *transport.FastReader) wsdl.Service {
	s := wsdl.Service{Name: r.String()}
	s.Ports = transport.ReadList(r, minPort, func(r *transport.FastReader) wsdl.Port {
		p := wsdl.Port{Name: r.String()}
		p.Operations = transport.ReadList(r, minOperation, func(r *transport.FastReader) wsdl.Operation {
			return wsdl.Operation{Name: r.String(), Input: r.String(), Output: r.String()}
		})
		return p
	})
	return s
}

func appendResource(b []byte, res owl.Resource) []byte {
	b = transport.AppendString(b, res.ID)
	b = transport.AppendInt(b, int64(res.Class.Kind))
	b = transport.AppendString(b, res.Class.Value)
	b = transport.AppendString(b, res.Class.Datatype)
	b = transport.AppendBool(b, res.Transferable)
	b = transport.AppendBool(b, res.Substitutable)
	b = transport.AppendString(b, res.Host)
	b = transport.AppendString(b, res.Location)
	b = transport.AppendInt(b, res.SizeBytes)
	keys := make([]string, 0, len(res.Attrs))
	for k := range res.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return transport.AppendList(b, keys, func(b []byte, k string) []byte {
		return transport.AppendString(transport.AppendString(b, k), res.Attrs[k])
	})
}

func readResource(r *transport.FastReader) owl.Resource {
	var res owl.Resource
	res.ID = r.String()
	res.Class = rdf.Term{Kind: rdf.TermKind(r.Int()), Value: r.String(), Datatype: r.String()}
	res.Transferable = r.Bool()
	res.Substitutable = r.Bool()
	res.Host = r.String()
	res.Location = r.String()
	res.SizeBytes = r.Int()
	if n := r.Count(minPair); n > 0 {
		res.Attrs = make(map[string]string)
		for range n {
			k := r.String()
			res.Attrs[k] = r.String()
		}
	}
	return res
}

func appendRebinding(b []byte, rb owl.Rebinding) []byte {
	b = appendResource(b, rb.Source)
	b = transport.AppendInt(b, int64(rb.Action))
	b = appendResource(b, rb.Target)
	return transport.AppendString(b, rb.Reason)
}

func readRebinding(r *transport.FastReader) owl.Rebinding {
	var rb owl.Rebinding
	rb.Source = readResource(r)
	rb.Action = owl.RebindAction(r.Int())
	rb.Target = readResource(r)
	rb.Reason = r.String()
	return rb
}

// AppendRebindings appends a list of rebinding plans.
func AppendRebindings(b []byte, plans []owl.Rebinding) []byte {
	return transport.AppendList(b, plans, appendRebinding)
}

// ReadRebindings reads AppendRebindings' layout.
func ReadRebindings(r *transport.FastReader) []owl.Rebinding {
	return transport.ReadList(r, minRebinding, readRebinding)
}

func appendAppRecord(b []byte, rec *AppRecord) []byte {
	b = transport.AppendString(b, rec.Name)
	b = transport.AppendString(b, rec.Host)
	b = transport.AppendString(b, rec.Space)
	b = AppendDescription(b, &rec.Description)
	b = transport.AppendStrings(b, rec.Components)
	return transport.AppendBool(b, rec.Running)
}

func readAppRecord(r *transport.FastReader) AppRecord {
	var rec AppRecord
	rec.Name = r.String()
	rec.Host = r.String()
	rec.Space = r.String()
	rec.Description = ReadDescription(r)
	rec.Components = r.Strings()
	rec.Running = r.Bool()
	return rec
}

// planMoveReq is a registry.plan-move request.
type planMoveReq struct {
	App       string
	DestHost  string
	Resources []owl.Resource
	Mode      owl.MatchMode
}

func encodePlanMoveReq(q planMoveReq) []byte {
	b := append(make([]byte, 0, 256), transport.ProtoV2, transport.OpPlanMove)
	b = transport.AppendString(b, q.App)
	b = transport.AppendString(b, q.DestHost)
	b = transport.AppendList(b, q.Resources, appendResource)
	return transport.AppendInt(b, int64(q.Mode))
}

func decodePlanMoveReq(payload []byte) (planMoveReq, error) {
	r, err := transport.OpenFastOp(payload, transport.OpPlanMove, MsgPlanMove)
	if err != nil {
		return planMoveReq{}, err
	}
	var q planMoveReq
	q.App = r.String()
	q.DestHost = r.String()
	q.Resources = transport.ReadList(r, minResource, readResource)
	q.Mode = owl.MatchMode(r.Int())
	return q, r.Err()
}

func encodeMovePlan(p MovePlan) []byte {
	b := append(make([]byte, 0, 512), transport.ProtoV2, transport.OpPlanMoveReply)
	b = appendAppRecord(b, &p.Dest)
	b = transport.AppendBool(b, p.DestFound)
	return AppendRebindings(b, p.Rebindings)
}

func decodeMovePlan(payload []byte) (MovePlan, error) {
	r, err := transport.OpenFastOp(payload, transport.OpPlanMoveReply, MsgPlanMove)
	if err != nil {
		return MovePlan{}, err
	}
	var p MovePlan
	p.Dest = readAppRecord(r)
	p.DestFound = r.Bool()
	p.Rebindings = ReadRebindings(r)
	return p, r.Err()
}

// moveAppReq is a registry.move-app request.
type moveAppReq struct {
	Rec  AppRecord
	From string
}

func encodeMoveAppReq(q moveAppReq) []byte {
	b := append(make([]byte, 0, 512), transport.ProtoV2, transport.OpMoveApp)
	b = appendAppRecord(b, &q.Rec)
	return transport.AppendString(b, q.From)
}

func decodeMoveAppReq(payload []byte) (moveAppReq, error) {
	r, err := transport.OpenFastOp(payload, transport.OpMoveApp, MsgMoveApp)
	if err != nil {
		return moveAppReq{}, err
	}
	var q moveAppReq
	q.Rec = readAppRecord(r)
	q.From = r.String()
	return q, r.Err()
}

func encodeMoveAppReply(demoted bool) []byte {
	return transport.AppendBool([]byte{transport.ProtoV2, transport.OpMoveAppReply}, demoted)
}

func decodeMoveAppReply(payload []byte) (bool, error) {
	r, err := transport.OpenFastOp(payload, transport.OpMoveAppReply, MsgMoveApp)
	if err != nil {
		return false, err
	}
	demoted := r.Bool()
	return demoted, r.Err()
}

func encodeLookupAppReq(q appKeyReq) []byte {
	b := append(make([]byte, 0, 64), transport.ProtoV2, transport.OpLookupApp)
	b = transport.AppendString(b, q.Name)
	return transport.AppendString(b, q.Host)
}

func decodeLookupAppReq(payload []byte) (appKeyReq, error) {
	r, err := transport.OpenFastOp(payload, transport.OpLookupApp, MsgLookupApp)
	if err != nil {
		return appKeyReq{}, err
	}
	var q appKeyReq
	q.Name = r.String()
	q.Host = r.String()
	return q, r.Err()
}

// lookupAppReply is a registry.lookup-app reply.
type lookupAppReply struct {
	Rec   AppRecord
	Found bool
}

func encodeLookupAppReply(p lookupAppReply) []byte {
	b := append(make([]byte, 0, 512), transport.ProtoV2, transport.OpLookupAppReply)
	b = appendAppRecord(b, &p.Rec)
	return transport.AppendBool(b, p.Found)
}

func decodeLookupAppReply(payload []byte) (lookupAppReply, error) {
	r, err := transport.OpenFastOp(payload, transport.OpLookupAppReply, MsgLookupApp)
	if err != nil {
		return lookupAppReply{}, err
	}
	var p lookupAppReply
	p.Rec = readAppRecord(r)
	p.Found = r.Bool()
	return p, r.Err()
}

// PlanMoveHandler serves registry.plan-move with plan (a center's
// PlanMove).
func PlanMoveHandler(plan func(ctx context.Context, appName, destHost string, resources []owl.Resource, mode owl.MatchMode) (MovePlan, error)) transport.Handler {
	return func(msg transport.Message) ([]byte, error) {
		q, err := decodePlanMoveReq(msg.Payload)
		if err != nil {
			return nil, err
		}
		p, err := plan(context.Background(), q.App, q.DestHost, q.Resources, q.Mode)
		if err != nil {
			return nil, err
		}
		return encodeMovePlan(p), nil
	}
}

// MoveAppHandler serves registry.move-app with move (a center's MoveApp).
func MoveAppHandler(move func(ctx context.Context, rec AppRecord, from string) (bool, error)) transport.Handler {
	return func(msg transport.Message) ([]byte, error) {
		q, err := decodeMoveAppReq(msg.Payload)
		if err != nil {
			return nil, err
		}
		demoted, err := move(context.Background(), q.Rec, q.From)
		if err != nil {
			return nil, err
		}
		return encodeMoveAppReply(demoted), nil
	}
}

// LookupAppHandler serves registry.lookup-app with lookup (a center's
// LookupApp).
func LookupAppHandler(lookup func(ctx context.Context, name, host string) (AppRecord, bool, error)) transport.Handler {
	return func(msg transport.Message) ([]byte, error) {
		q, err := decodeLookupAppReq(msg.Payload)
		if err != nil {
			return nil, err
		}
		rec, found, err := lookup(context.Background(), q.Name, q.Host)
		if err != nil {
			return nil, err
		}
		return encodeLookupAppReply(lookupAppReply{Rec: rec, Found: found}), nil
	}
}
