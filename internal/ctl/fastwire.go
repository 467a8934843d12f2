package ctl

import (
	"fmt"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/transport"
)

// seqEvent is one ring-buffered event with its stream sequence number.
type seqEvent struct {
	Seq   uint64
	Event ctxkernel.Event
}

// encodeEventBatch builds a v2 push frame (transport.OpEventBatch): the
// watch id, the overflow count since the last frame, and a whole flush
// window of sequenced events in one sealed fast frame. Layout:
//
//	uvarint id, uvarint lost, uvarint count,
//	count × (uvarint seq, string topic, string source, time at,
//	         uvarint nattrs, nattrs × (string key, string value))
func encodeEventBatch(id, lost uint64, events []seqEvent) []byte {
	b := make([]byte, 0, 16+len(events)*96)
	b = transport.AppendUint(b, id)
	b = transport.AppendUint(b, lost)
	b = transport.AppendUint(b, uint64(len(events)))
	for _, se := range events {
		b = transport.AppendUint(b, se.Seq)
		b = transport.AppendString(b, se.Event.Topic)
		b = transport.AppendString(b, se.Event.Source)
		b = transport.AppendTime(b, se.Event.At)
		b = transport.AppendUint(b, uint64(len(se.Event.Attrs)))
		for k, v := range se.Event.Attrs {
			b = transport.AppendString(b, k)
			b = transport.AppendString(b, v)
		}
	}
	return transport.SealFast(transport.OpEventBatch, b)
}

// decodeEventBatch parses a v2 push frame. The decoded events own their
// strings (Go string conversion copies), so they may outlive payload.
func decodeEventBatch(payload []byte) (id, lost uint64, events []seqEvent, err error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return 0, 0, nil, err
	}
	if op != transport.OpEventBatch {
		return 0, 0, nil, transport.ErrVersion
	}
	r := transport.NewFastReader(body)
	id = r.Uint()
	lost = r.Uint()
	count := r.Uint()
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	// Cap the initial allocation: count comes off the wire and a torn
	// frame must not size a giant slice (the loop re-grows as needed and
	// fails on truncation long before any real limit).
	events = make([]seqEvent, 0, min(count, maxEventBatch))
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		se := seqEvent{Seq: r.Uint()}
		se.Event.Topic = r.String()
		se.Event.Source = r.String()
		se.Event.At = r.Time()
		// The count comes off the wire: it caps only the map's size hint,
		// and a count the frame cannot back fails on truncation below. No
		// count may skip the loop, or the attribute bytes would be parsed
		// as the next event.
		if nattrs := r.Uint(); nattrs > 0 && r.Err() == nil {
			se.Event.Attrs = make(map[string]string, min(nattrs, 64))
			for a := uint64(0); a < nattrs && r.Err() == nil; a++ {
				k := r.String()
				se.Event.Attrs[k] = r.String()
			}
		}
		events = append(events, se)
	}
	if err := r.Err(); err != nil {
		return 0, 0, nil, err
	}
	return id, lost, events, nil
}

// encodeBundlePush builds a bundle-push request frame
// (transport.OpBundlePush): string name, bytes raw.
func encodeBundlePush(name string, raw []byte) []byte {
	body := transport.AppendString(make([]byte, 0, len(name)+len(raw)+16), name)
	body = transport.AppendBytes(body, raw)
	return transport.SealFast(transport.OpBundlePush, body)
}

// decodeBundlePush parses a bundle-push request frame; a payload of any
// other version fails with OpenFast's ErrVersion. raw is copied out of
// the frame: the bundle outlives the handler (it lands in the store).
func decodeBundlePush(payload []byte) (name string, raw []byte, err error) {
	op, body, err := transport.OpenFast(payload)
	if err != nil {
		return "", nil, err
	}
	if op != transport.OpBundlePush {
		return "", nil, fmt.Errorf("ctl: bundle-push got fast opcode %#x", op)
	}
	r := transport.NewFastReader(body)
	name = r.String()
	raw = append([]byte(nil), r.Bytes()...)
	return name, raw, r.Err()
}
