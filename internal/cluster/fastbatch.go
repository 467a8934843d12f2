package cluster

import (
	"fmt"

	"mdagent/internal/transport"
)

// Fast-frame encoding of the federation batch, the only way one center
// pushes to another (MsgFedBatch). A request body (transport.OpFedBatch)
// is
//
//	uvarint n, n × (byte kind, bytes body)
//
// where body is the item's gob message (pushMsg, snapDeltaMsg or
// durableMsg, by kind), and a reply body (transport.OpFedBatchReply) is
//
//	uvarint n, n × string result
//
// one result per request item, in order: empty when the peer holds the
// item's write, else why it does not. The outer frame is a fast frame
// and not a gob of gobs: a second gob layer costs measurable time on the
// write path.

// Federation item kinds.
const (
	fedPush      byte = 1 // pushMsg: whole records
	fedSnapDelta byte = 2 // snapDeltaMsg: the newest delta of a snapshot record
	fedDurable   byte = 3 // durableMsg: a snapshot write met its concern
)

// maxBatchBytes bounds the item bytes of one batch: a worker stops
// before the item that would take a batch past it, and an item bigger
// than that goes alone.
const maxBatchBytes = 1 << 20

// encodeFedBatch seals a run of queued pushes as one OpFedBatch frame.
func encodeFedBatch(items []pushItem) []byte {
	n := 2 + 10
	for _, it := range items {
		n += 1 + 10 + len(it.payload)
	}
	b := append(make([]byte, 0, n), transport.ProtoV2, transport.OpFedBatch)
	b = transport.AppendUint(b, uint64(len(items)))
	for _, it := range items {
		b = append(b, it.kind)
		b = transport.AppendBytes(b, it.payload)
	}
	return b
}

// decodeFedBatch parses an OpFedBatch frame into items of a kind and a
// payload, which aliases the frame. A frame of another version or
// opcode, or an item of a kind this build does not know, fails with
// ErrVersion: a batch is applied whole or not at all, never past an item
// that was skipped.
func decodeFedBatch(payload []byte) ([]pushItem, error) {
	r, n, err := openFedFrame(payload, transport.OpFedBatch)
	if err != nil {
		return nil, err
	}
	// Every item takes at least two bytes (kind, body length), so the
	// bytes present bound the allocation, whatever n claims.
	items := make([]pushItem, 0, min(n, uint64(len(payload)/2)))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		var it pushItem
		if k := r.Fixed(1); len(k) == 1 {
			it.kind = k[0]
		}
		it.payload = r.Bytes()
		if r.Err() == nil && (it.kind < fedPush || it.kind > fedDurable) {
			return nil, fmt.Errorf("%w: cluster: unknown federation item kind %d in %s", transport.ErrVersion, it.kind, MsgFedBatch)
		}
		items = append(items, it)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return items, nil
}

// encodeFedBatchReply seals one result per batch item as an
// OpFedBatchReply frame.
func encodeFedBatchReply(results []string) []byte {
	b := append(make([]byte, 0, 2+10+len(results)), transport.ProtoV2, transport.OpFedBatchReply)
	b = transport.AppendUint(b, uint64(len(results)))
	for _, res := range results {
		b = transport.AppendString(b, res)
	}
	return b
}

// decodeFedBatchReply parses an OpFedBatchReply frame.
func decodeFedBatchReply(payload []byte) ([]string, error) {
	r, n, err := openFedFrame(payload, transport.OpFedBatchReply)
	if err != nil {
		return nil, err
	}
	// One byte per result at least (the empty string's length).
	results := make([]string, 0, min(n, uint64(len(payload))))
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		results = append(results, r.String())
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// openFedFrame opens a batch frame of opcode want and reads its item
// count.
func openFedFrame(payload []byte, want byte) (*transport.FastReader, uint64, error) {
	r, err := transport.OpenFastOp(payload, want, MsgFedBatch)
	if err != nil {
		return nil, 0, err
	}
	n := r.Uint()
	return r, n, r.Err()
}
