package migrate

import (
	"fmt"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

// checkinPayload crosses the wire for follow-me and clone-dispatch as one
// fast frame, [ProtoV2][OpCheckin]: the head fields, Desc and Rebindings
// as one gob blob, the Delta flag, then Frame as the rest of the body.
// The head is what appendCheckinHead writes; the source appends the state
// frame straight behind it (state.AppendWrap), so the check-in body is
// the only payload-sized buffer it allocates, and the destination's Frame
// aliases the message it arrived in.
type checkinPayload struct {
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
}

// appendCheckinHead writes everything of a check-in body but p.Frame.
func appendCheckinHead(p checkinPayload) ([]byte, error) {
	meta, err := transport.Encode(&p.checkinMeta)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, 128+len(meta))
	b = append(b, transport.ProtoV2, transport.OpCheckin)
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
// ErrVersion before its body is touched. Frame aliases payload.
func decodeCheckin(payload []byte) (checkinPayload, error) {
	var p checkinPayload
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return p, err
	}
	if op != transport.OpCheckin {
		return p, fmt.Errorf("migrate: unknown fast opcode %#x on a check-in", op)
	}
	r := transport.NewFastReader(body)
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
