package cluster

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// The golden frames under testdata/wire were written by the last commit
// that still carried two encodings of the snapshot put (24c6c4d), using
// that commit's own encoders. Re-encoding the recorded values to the
// same bytes proves the one encoding that remains is the one that commit
// sent.

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
