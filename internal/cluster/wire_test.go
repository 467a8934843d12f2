package cluster

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// The golden frames under testdata/wire were written by the last commit
// that still carried two encodings of the snapshot put (24c6c4d), using
// that commit's own encoders. Re-encoding the recorded values to the
// same bytes proves the one encoding that remains is the one that commit
// sent. fed-batch.bin and fed-batch-reply.bin were written by the
// commit that introduced the federation batch, from goldenFedBatch's
// values; the item bodies are gob, whose type ids depend on what the
// process encoded first, so the batch is checked by re-encoding its
// decoded items (bodies as recorded) and by decoding each body.

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestGoldenWireFrames(t *testing.T) {
	put := state.SnapshotPut{
		App: "player", Host: "hostA", Space: "lab", At: time.Unix(0, 1700000000000000001),
		Delta: true, Frame: []byte("MDST-golden-delta-frame\x00\xff"),
		BaseDigest: sha256.Sum256([]byte("base")), NewDigest: sha256.Sum256([]byte("new")),
		Concern: "quorum",
	}
	golden := goldenWire(t, "snap-put.bin")
	if got := encodeSnapPut(put); !bytes.Equal(got, golden) {
		t.Fatalf("OpSnapPut re-encodes to\n%x\nrecorded\n%x", got, golden)
	}
	if got, err := decodeSnapPut(golden); err != nil || !reflect.DeepEqual(got, put) {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, put)
	}

	outcome := snapOutcome{Stamp: state.SnapshotStamp{Seq: 7, BaseSeq: 3, Chain: 4}, NotDurable: true}
	golden = goldenWire(t, "snap-put-reply.bin")
	if got := encodeSnapOutcome(outcome); !bytes.Equal(got, golden) {
		t.Fatalf("OpSnapPutReply re-encodes to %x, recorded %x", got, golden)
	}
	if got, err := decodeSnapOutcomeReply(golden); err != nil || got != outcome {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, outcome)
	}

	// A frame of an opcode the decoder does not serve is a version
	// refusal, whichever fast frame it is.
	if _, err := decodeSnapPut(golden); !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
		t.Fatalf("a put reply decoded as a put: err = %v, want ErrVersion", err)
	}
	if _, err := decodeSnapOutcomeReply(goldenWire(t, "snap-put.bin")); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("a put decoded as a put reply: err = %v, want ErrVersion", err)
	}
}

// goldenSnapGet holds the values snap-get.bin, snap-get-reply.bin and
// snap-get-reply-tail.bin were written from: a fetch from a requester
// that holds seq 5 of a chain based at 5, the full record it would get
// from a center without that base, and the two-delta tail it gets from
// one with it.
func goldenSnapGet() (req snapGetReq, full, tail snapGetReply) {
	req = snapGetReq{App: "player", Have: true, HaveBaseSeq: 5, HaveSeq: 5, HaveDigest: sha256.Sum256([]byte("have"))}
	rec := state.SnapshotRecord{
		App: "player", Host: "hostA", Space: "lab", Seq: 7, At: time.Unix(0, 1700000000000000001), BaseSeq: 5,
		Frame:       []byte("MDST-golden-base-frame\x00\xff"),
		Deltas:      [][]byte{[]byte("MDST-golden-delta-6"), []byte("MDST-golden-delta-7")},
		StateDigest: sha256.Sum256([]byte("new")), Durable: true,
	}
	full = snapGetReply{Rec: rec, Found: true}
	rec.Frame = nil
	tail = snapGetReply{Rec: rec, Found: true, DeltaOnly: true}
	return req, full, tail
}

// TestGoldenSnapGetFrames: the recorded fetch and its two answers
// re-encode to the recorded bytes and decode to goldenSnapGet's values,
// and each decoder refuses the other's opcode and the gob request and
// reply of the last commit whose snap-get was gob (372cd28:
// snap-get-gob.bin, snap-get-reply-gob.bin) with ErrVersion.
func TestGoldenSnapGetFrames(t *testing.T) {
	req, full, tail := goldenSnapGet()
	golden := goldenWire(t, "snap-get.bin")
	if got := encodeSnapGet(req); !bytes.Equal(got, golden) {
		t.Fatalf("OpSnapGet re-encodes to\n%x\nrecorded\n%x", got, golden)
	}
	if got, err := decodeSnapGet(golden); err != nil || got != req {
		t.Fatalf("decoded %+v (err %v), want %+v", got, err, req)
	}
	for name, want := range map[string]snapGetReply{"snap-get-reply.bin": full, "snap-get-reply-tail.bin": tail} {
		golden := goldenWire(t, name)
		if got := encodeSnapGetReply(want); !bytes.Equal(got, golden) {
			t.Fatalf("%s: OpSnapGetReply re-encodes to\n%x\nrecorded\n%x", name, got, golden)
		}
		if got, err := decodeSnapGetReply(golden); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v (err %v), want %+v", name, got, err, want)
		}
	}

	for _, frame := range [][]byte{goldenWire(t, "snap-get-reply.bin"), goldenWire(t, "snap-put.bin")} {
		if _, err := decodeSnapGet(frame); !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
			t.Fatalf("opcode %#x decoded as a fetch: err = %v, want ErrVersion", frame[1], err)
		}
	}
	for _, frame := range [][]byte{goldenWire(t, "snap-get.bin"), goldenWire(t, "snap-put-reply.bin")} {
		if _, err := decodeSnapGetReply(frame); !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
			t.Fatalf("opcode %#x decoded as a fetch reply: err = %v, want ErrVersion", frame[1], err)
		}
	}
	if _, err := decodeSnapGet(goldenWire(t, "snap-get-gob.bin")); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("the gob-sealed fetch: err = %v, want ErrVersion", err)
	}
	if _, err := decodeSnapGetReply(goldenWire(t, "snap-get-reply-gob.bin")); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("the gob reply: err = %v, want ErrVersion", err)
	}
}

// goldenFedBatch is the batch fed-batch.bin holds: one item of each
// kind, in the order a delta put and its durable mark follow a record
// push. The reply gives each a result; the delta's says it did not
// chain.
func goldenFedBatch() (push pushMsg, delta snapDeltaMsg, durable durableMsg, results []string) {
	ver := vclock.Version{"lab": 2, "annex": 1}
	app := registry.AppRecord{Name: "player", Host: "hostA", Space: "lab", Running: true}
	push = pushMsg{From: "lab", Records: []Record{{
		Key: app.Key(), Kind: RecordApp, Origin: "lab", Version: vclock.Version{"lab": 1}, App: app,
	}}}
	delta = snapDeltaMsg{
		From: "lab", Key: snapKey("player"), Version: ver, Seq: 2, Host: "hostA", Space: "lab",
		At: time.Unix(0, 1700000000000000001).UTC(), BaseDigest: sha256.Sum256([]byte("base")),
		NewDigest: sha256.Sum256([]byte("new")), Delta: []byte("MDST-golden-delta-frame\x00\xff"),
	}
	durable = durableMsg{From: "lab", Key: snapKey("player"), Version: ver}
	return push, delta, durable, []string{"", "cluster: delta does not chain onto this center's copy", ""}
}

// TestGoldenFedBatchFrames: the recorded batch decodes to goldenFedBatch's
// values, item by item, and its items re-encode to the recorded bytes.
func TestGoldenFedBatchFrames(t *testing.T) {
	push, delta, durable, results := goldenFedBatch()
	golden := goldenWire(t, "fed-batch.bin")
	items, err := decodeFedBatch(golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0].kind != fedPush || items[1].kind != fedSnapDelta || items[2].kind != fedDurable {
		t.Fatalf("decoded %d items %+v, want push, delta, durable", len(items), items)
	}
	if got := encodeFedBatch(items); !bytes.Equal(got, golden) {
		t.Fatalf("OpFedBatch re-encodes to\n%x\nrecorded\n%x", got, golden)
	}
	var gotPush pushMsg
	var gotDelta snapDeltaMsg
	var gotDurable durableMsg
	for i, pair := range []struct{ got, want any }{{&gotPush, push}, {&gotDelta, delta}, {&gotDurable, durable}} {
		if err := transport.Decode(items[i].payload, pair.got); err != nil {
			t.Fatalf("item %d body: %v", i, err)
		}
		if got := reflect.ValueOf(pair.got).Elem().Interface(); !reflect.DeepEqual(got, pair.want) {
			t.Fatalf("item %d decoded\n%+v\nwant\n%+v", i, got, pair.want)
		}
	}

	for _, frame := range [][]byte{goldenWire(t, "fed-batch-reply.bin"), goldenWire(t, "snap-put.bin")} {
		if _, err := decodeFedBatch(frame); !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
			t.Fatalf("opcode %#x decoded as a batch: err = %v, want ErrVersion", frame[1], err)
		}
	}
	unknown := bytes.Clone(golden)
	unknown[3] = fedDurable + 1 // the first item's kind
	if _, err := decodeFedBatch(unknown); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("an unknown item kind: err = %v, want ErrVersion", err)
	}

	golden = goldenWire(t, "fed-batch-reply.bin")
	if _, err := decodeFedBatchReply(goldenWire(t, "fed-batch.bin")); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("a batch decoded as a reply: err = %v, want ErrVersion", err)
	}
	if got := encodeFedBatchReply(results); !bytes.Equal(got, golden) {
		t.Fatalf("OpFedBatchReply re-encodes to %x, recorded %x", got, golden)
	}
	if got, err := decodeFedBatchReply(golden); err != nil || !reflect.DeepEqual(got, results) {
		t.Fatalf("decoded %q (err %v), want %q", got, err, results)
	}
}

// FuzzSnapPutFrame: decodeSnapPut is the only reader of what a remote
// replicator sends a center. Any input yields a typed error or a put
// that survives a re-encode/decode round trip; it never panics and never
// allocates in proportion to a length the frame merely claims.
func FuzzSnapPutFrame(f *testing.F) {
	golden := goldenWire(f, "snap-put.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)-40]) // torn inside the digests
	f.Add(goldenWire(f, "snap-put-reply.bin"))
	f.Add(append([]byte{transport.ProtoV2, transport.OpSnapPut}, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f)) // 4 GiB frame claimed
	f.Add(transport.Seal([]byte("gob")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		put, err := decodeSnapPut(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+8*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		again, err := decodeSnapPut(encodeSnapPut(put))
		if err != nil || !reflect.DeepEqual(again, put) {
			t.Fatalf("round trip changed the put (err %v):\n%+v\n%+v", err, put, again)
		}
	})
}

// FuzzSnapGet: decodeSnapGet reads what a restoring host asks a center,
// decodeSnapGetReply what the center answers. Any input yields a typed
// error or a value that survives a re-encode/decode round trip; neither
// decoder panics or allocates in proportion to a delta count the frame
// merely claims.
func FuzzSnapGet(f *testing.F) {
	for _, name := range []string{"snap-get.bin", "snap-get-reply.bin", "snap-get-reply-tail.bin", "snap-get-gob.bin", "snap-get-reply-gob.bin"} {
		golden := goldenWire(f, name)
		f.Add(golden)
		f.Add(golden[:len(golden)-7]) // torn inside the last field
	}
	// A reply claiming 4 G deltas behind an empty head: found, then eight
	// zero-valued fields up to the digest, then durable, an empty frame
	// and the count.
	claim := append([]byte{transport.ProtoV2, transport.OpSnapGetReply, 1, 0, 0, 0, 0, 0, 0, 0}, make([]byte, sha256.Size)...)
	f.Add(append(claim, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, qerr := decodeSnapGet(data)
		reply, rerr := decodeSnapGetReply(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if qerr == nil {
			if again, err := decodeSnapGet(encodeSnapGet(req)); err != nil || again != req {
				t.Fatalf("round trip changed the fetch (err %v):\n%+v\n%+v", err, req, again)
			}
		}
		if rerr == nil {
			again, err := decodeSnapGetReply(encodeSnapGetReply(reply))
			if err != nil || !reflect.DeepEqual(again, reply) {
				t.Fatalf("round trip changed the reply (err %v):\n%+v\n%+v", err, reply, again)
			}
		}
	})
}

// FuzzFedBatch: decodeFedBatch reads what a peer center pushes, and
// decodeFedBatchReply what it answers. Any input yields a typed error or
// a batch that survives a re-encode/decode round trip; neither decoder
// panics or allocates in proportion to an item count the frame merely
// claims.
func FuzzFedBatch(f *testing.F) {
	batch, reply := goldenWire(f, "fed-batch.bin"), goldenWire(f, "fed-batch-reply.bin")
	f.Add(batch)
	f.Add(batch[:len(batch)-10]) // torn inside the durable mark
	f.Add(reply)
	f.Add(reply[:len(reply)-3])
	f.Add([]byte{transport.ProtoV2, transport.OpFedBatch, 0xff, 0xff, 0xff, 0xff, 0x0f})      // 4 G items claimed
	f.Add([]byte{transport.ProtoV2, transport.OpFedBatchReply, 0xff, 0xff, 0xff, 0xff, 0x0f}) // 4 G results claimed
	f.Add([]byte{transport.ProtoV2, transport.OpFedBatch, 1, 9, 0})                           // unknown item kind
	f.Add(transport.Seal([]byte("gob")))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		items, ierr := decodeFedBatch(data)
		results, rerr := decodeFedBatchReply(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if ierr == nil {
			again, err := decodeFedBatch(encodeFedBatch(items))
			if err != nil || !reflect.DeepEqual(again, items) {
				t.Fatalf("round trip changed the batch (err %v):\n%+v\n%+v", err, items, again)
			}
		}
		if rerr == nil {
			again, err := decodeFedBatchReply(encodeFedBatchReply(results))
			if err != nil || !reflect.DeepEqual(again, results) {
				t.Fatalf("round trip changed the reply (err %v):\n%q\n%q", err, results, again)
			}
		}
	})
}
