package migrate

import (
	"context"
	"sync"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// checkinPayload crosses the wire for follow-me and clone-dispatch as one
// fast frame, [ProtoV2][OpCheckin]: the source's budget, the head fields,
// Desc and Rebindings (internal/registry's codecs), the Delta flag, then
// Frame as the rest of the body.
// The head is what appendCheckinHead writes; encodeCheckin builds it in a
// pooled buffer and the state frame's encoder copies it in front of the
// frame (state.AppendWrap), so the check-in body is the only buffer a
// check-in allocates, and the destination's Frame aliases the message it
// arrived in.
type checkinPayload struct {
	// Budget is what was left of the source's deadline when it wrote the
	// head — a duration, not a time, because host clocks are skewed; 0
	// when the source had none. The destination restores within it (and
	// within restoreTimeout), and commits nothing once it is spent.
	Budget     time.Duration
	App        string
	CloneName  string // clone-dispatch: instance name at the destination
	Mode       Mode
	Binding    BindingMode
	FromHost   string
	FromEngine string // source engine endpoint (sync links, remote media)
	// TraceID is the migration trace minted at the source; the
	// destination records its restore/rebind spans under it. Empty on a
	// clone dispatch, which is not traced.
	TraceID    string
	Desc       wsdl.Description
	Rebindings []owl.Rebinding
	// Delta says what Frame is: a delta frame against a base the
	// destination already holds (the warm handoff), or a full wrap frame.
	Delta bool
	Frame []byte
}

// checkinReply is the destination's answer, one [ProtoV2][OpCheckinReply]
// frame: int resume-nanos, list of adapt-note strings, string
// restored-app, list of spans, bool source-demoted. A span is string
// trace, string app, string phase, string host, time start, int dur,
// string note.
type checkinReply struct {
	ResumeNanos int64
	AdaptNotes  []string
	RestoredApp string
	// Spans carries the destination-side trace spans (restore, rebind)
	// back to the source, which merges them into its trace log so one
	// `mdctl trace` against the source shows the full cross-host
	// timeline.
	Spans []obs.Span
	// SourceDemoted says the destination's registry.move-app took care of
	// the source's record; false only when the destination's center does
	// not own it, and the source demotes it itself.
	SourceDemoted bool
}

// restoreTimeout bounds an arrival whose source sent no budget, and caps
// the budget it did send.
const restoreTimeout = 60 * time.Second

// budgetOf is the check-in head's Budget for a source running under ctx.
func budgetOf(ctx context.Context) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	return max(time.Until(dl), 1) // already spent: 1 ns, never 0 ("none")
}

// checkinHeads recycles the buffers check-in heads are built in: a head
// is copied into the body that carries it with its frame, so its buffer
// is free again once that body exists.
var checkinHeads = sync.Pool{New: func() any { return new([]byte) }}

// encodeCheckin returns the check-in body for p — its head followed by
// the frame join puts behind it — and the frame's length. join must copy
// the head into a buffer of its own, sized for head and frame: the head
// is built in a pooled buffer and copied once.
func encodeCheckin(p *checkinPayload, join func(head []byte) ([]byte, error)) ([]byte, int, error) {
	bp := checkinHeads.Get().(*[]byte)
	head := appendCheckinHead((*bp)[:0], p)
	body, err := join(head)
	if cap(head) <= 64<<10 {
		*bp = head
		checkinHeads.Put(bp)
	}
	return body, len(body) - len(head), err
}

// appendCheckinHead appends everything of a check-in body but p.Frame to b.
func appendCheckinHead(b []byte, p *checkinPayload) []byte {
	b = append(b, transport.ProtoV2, transport.OpCheckin)
	b = transport.AppendUint(b, uint64(p.Budget))
	b = transport.AppendString(b, p.App)
	b = transport.AppendString(b, p.CloneName)
	b = transport.AppendUint(b, uint64(p.Mode))
	b = transport.AppendUint(b, uint64(p.Binding))
	b = transport.AppendString(b, p.FromHost)
	b = transport.AppendString(b, p.FromEngine)
	b = transport.AppendString(b, p.TraceID)
	b = registry.AppendDescription(b, &p.Desc)
	b = registry.AppendRebindings(b, p.Rebindings)
	return transport.AppendBool(b, p.Delta)
}

// decodeCheckin parses a check-in body. A payload of any other version —
// the gob check-in of an older host included — fails with OpenFast's
// ErrVersion before its body is touched, as does a frame of an opcode
// this build does not know (the retired 0x30 and 0x31 check-ins among
// them). A budget past restoreTimeout reads as restoreTimeout. Frame
// aliases payload.
func decodeCheckin(payload []byte) (checkinPayload, error) {
	var p checkinPayload
	r, err := transport.OpenFastOp(payload, transport.OpCheckin, "a check-in")
	if err != nil {
		return p, err
	}
	p.Budget = time.Duration(min(r.Uint(), uint64(restoreTimeout)))
	p.App = r.String()
	p.CloneName = r.String()
	p.Mode = Mode(r.Uint())
	p.Binding = BindingMode(r.Uint())
	p.FromHost = r.String()
	p.FromEngine = r.String()
	p.TraceID = r.String()
	p.Desc = registry.ReadDescription(r)
	p.Rebindings = registry.ReadRebindings(r)
	p.Delta = r.Bool()
	p.Frame = r.Rest()
	if err := r.Err(); err != nil {
		return checkinPayload{}, err
	}
	return p, nil
}

func encodeCheckinReply(rep *checkinReply) []byte {
	b := make([]byte, 0, 256)
	b = append(b, transport.ProtoV2, transport.OpCheckinReply)
	b = transport.AppendInt(b, rep.ResumeNanos)
	b = transport.AppendStrings(b, rep.AdaptNotes)
	b = transport.AppendString(b, rep.RestoredApp)
	b = transport.AppendList(b, rep.Spans, func(b []byte, sp obs.Span) []byte {
		b = transport.AppendString(b, sp.Trace)
		b = transport.AppendString(b, sp.App)
		b = transport.AppendString(b, sp.Phase)
		b = transport.AppendString(b, sp.Host)
		b = transport.AppendTime(b, sp.Start)
		b = transport.AppendInt(b, int64(sp.Dur))
		return transport.AppendString(b, sp.Note)
	})
	return transport.AppendBool(b, rep.SourceDemoted)
}

// minSpan is a span's smallest encoding in bytes: five strings, the
// start's presence flag and the duration.
const minSpan = 7

func decodeCheckinReply(payload []byte) (checkinReply, error) {
	var rep checkinReply
	r, err := transport.OpenFastOp(payload, transport.OpCheckinReply, "a check-in reply")
	if err != nil {
		return rep, err
	}
	rep.ResumeNanos = r.Int()
	rep.AdaptNotes = r.Strings()
	rep.RestoredApp = r.String()
	rep.Spans = transport.ReadList(r, minSpan, func(r *transport.FastReader) obs.Span {
		return obs.Span{Trace: r.String(), App: r.String(), Phase: r.String(), Host: r.String(),
			Start: r.Time(), Dur: time.Duration(r.Int()), Note: r.String()}
	})
	rep.SourceDemoted = r.Bool()
	if err := r.Err(); err != nil {
		return checkinReply{}, err
	}
	return rep, nil
}

// requestCheckin sends a check-in body to the engine of destHost as op
// (MsgCheckin or MsgClone) and reads the reply.
func (e *Engine) requestCheckin(ctx context.Context, destHost, op string, body []byte) (checkinReply, error) {
	reply, err := e.ep.Request(ctx, EndpointName(destHost), op, body)
	if err != nil {
		return checkinReply{}, err
	}
	return decodeCheckinReply(reply.Payload)
}
