package migrate

import (
	"context"
	"fmt"
	"time"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// checkinPayload crosses the wire for follow-me and clone-dispatch as one
// fast frame, [ProtoV2][OpCheckin]: the source's budget, the head fields,
// Desc and Rebindings as one gob blob, the Delta flag, then Frame as the
// rest of the body.
// The head is what appendCheckinHead writes; the source appends the state
// frame straight behind it (state.AppendWrap), so the check-in body is
// the only payload-sized buffer it allocates, and the destination's Frame
// aliases the message it arrived in.
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
	TraceID string
	checkinMeta
	// Delta says what Frame is: a delta frame against a base the
	// destination already holds (the warm handoff), or a full wrap frame.
	Delta bool
	Frame []byte
}

// checkinMeta is the structured part of the head, sent as one gob value.
type checkinMeta struct {
	Desc       wsdl.Description
	Rebindings []owl.Rebinding
}

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

// appendCheckinHead writes everything of a check-in body but p.Frame.
func appendCheckinHead(p checkinPayload) ([]byte, error) {
	meta, err := transport.Encode(&p.checkinMeta)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 128+len(meta))
	b = append(b, transport.ProtoV2, transport.OpCheckin)
	b = transport.AppendUint(b, uint64(p.Budget))
	b = transport.AppendString(b, p.App)
	b = transport.AppendString(b, p.CloneName)
	b = transport.AppendUint(b, uint64(p.Mode))
	b = transport.AppendUint(b, uint64(p.Binding))
	b = transport.AppendString(b, p.FromHost)
	b = transport.AppendString(b, p.FromEngine)
	b = transport.AppendString(b, p.TraceID)
	b = transport.AppendBytes(b, meta)
	return transport.AppendBool(b, p.Delta), nil
}

// decodeCheckin parses a check-in body. A payload of any other version —
// the gob check-in of an older host included — fails with OpenFast's
// ErrVersion before its body is touched, as do the retired 0x30
// check-in of a host that leaves the source to demote its own record
// and a frame of an opcode this build does not know. A budget past
// restoreTimeout reads as restoreTimeout. Frame aliases payload.
func decodeCheckin(payload []byte) (checkinPayload, error) {
	var p checkinPayload
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return p, err
	}
	switch op {
	case transport.OpCheckin:
	case transport.OpCheckinRetired:
		return p, fmt.Errorf("%w: check-in opcode %#x is retired: the sending host does not commit moves at the destination", transport.ErrVersion, op)
	default:
		return p, fmt.Errorf("%w: migrate: unknown fast opcode %#x on a check-in", transport.ErrVersion, op)
	}
	r := transport.NewFastReader(body)
	p.Budget = time.Duration(min(r.Uint(), uint64(restoreTimeout)))
	p.App = r.String()
	p.CloneName = r.String()
	p.Mode = Mode(r.Uint())
	p.Binding = BindingMode(r.Uint())
	p.FromHost = r.String()
	p.FromEngine = r.String()
	p.TraceID = r.String()
	meta := r.Bytes()
	p.Delta = r.Bool()
	p.Frame = r.Rest()
	if err := r.Err(); err != nil {
		return checkinPayload{}, err
	}
	if err := transport.Decode(meta, &p.checkinMeta); err != nil {
		return checkinPayload{}, err
	}
	return p, nil
}
