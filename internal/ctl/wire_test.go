package ctl

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/ctxkernel"
	"mdagent/internal/transport"
)

// The golden frames under testdata/wire were written by the last commit
// that still carried two encodings per op (24c6c4d), using that commit's
// own encoders. Re-encoding the recorded values to the same bytes proves
// the one encoding that remains is the one that commit sent.

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var goldenEvents = []seqEvent{
	{Seq: 41, Event: ctxkernel.Event{Topic: "app.migrated", Source: "ctl", At: time.Unix(0, 1700000000000000001), Attrs: map[string]string{"dest": "hostB"}}},
	{Seq: 42, Event: ctxkernel.Event{Topic: "app.started", Source: "ctl", At: time.Unix(0, 0), Attrs: map[string]string{"app": "smart-media-player"}}},
}

func TestGoldenWireFrames(t *testing.T) {
	t.Run("event-batch", func(t *testing.T) {
		golden := goldenWire(t, "event-batch.bin")
		if got := encodeEventBatch(9, 3, goldenEvents); !bytes.Equal(got, golden) {
			t.Fatalf("OpEventBatch re-encodes to\n%x\nrecorded\n%x", got, golden)
		}
		id, lost, events, err := decodeEventBatch(golden)
		if err != nil || id != 9 || lost != 3 || !reflect.DeepEqual(events, goldenEvents) {
			t.Fatalf("decoded id=%d lost=%d events=%+v err=%v", id, lost, events, err)
		}
	})
	t.Run("bundle-push", func(t *testing.T) {
		golden := goldenWire(t, "bundle-push.bin")
		name, raw := "smart-media-player", []byte("MDAB\x00golden-bundle-bytes\xff")
		if got := encodeBundlePush(name, raw); !bytes.Equal(got, golden) {
			t.Fatalf("OpBundlePush re-encodes to\n%x\nrecorded\n%x", got, golden)
		}
		gotName, gotRaw, err := decodeBundlePush(golden)
		if err != nil || gotName != name || !bytes.Equal(gotRaw, raw) {
			t.Fatalf("decoded name=%q raw=%q err=%v", gotName, gotRaw, err)
		}
	})
	// Gob assigns type ids per process, so the sealed bodies are only
	// required to decode to what was recorded, not to re-encode the same.
	t.Run("watch-req", func(t *testing.T) {
		var req watchReq
		if err := transport.DecodeSealed(goldenWire(t, "watch-req.gob"), &req); err != nil {
			t.Fatal(err)
		}
		if want := (watchReq{ID: 5, Pattern: "app.*", Proto: transport.ProtoV2, FromSeq: 7}); req != want {
			t.Fatalf("decoded %+v, want %+v", req, want)
		}
	})
	t.Run("watch-ack", func(t *testing.T) {
		var ack watchAck
		if err := transport.Decode(goldenWire(t, "watch-ack.gob"), &ack); err != nil {
			t.Fatal(err)
		}
		if want := (watchAck{Proto: transport.ProtoV2, Next: 43, Ring: 8192}); ack != want {
			t.Fatalf("decoded %+v, want %+v", ack, want)
		}
	})
}

// TestBundlePushRefusesGobSeal: the bundle push has one encoding, so the
// retired gob-sealed request is refused with ErrVersion before its body
// is read — the backend never sees the bundle.
func TestBundlePushRefusesGobSeal(t *testing.T) {
	fabric := transport.NewLocalFabric(nil)
	defer fabric.Close()
	srvEp, err := fabric.Attach("push-srv", "")
	if err != nil {
		t.Fatal(err)
	}
	pushed := 0
	srv := NewServer(Backend{PushBundle: func(context.Context, string, []byte) error {
		pushed++
		return nil
	}})
	srv.Serve(srvEp)
	defer srv.Close()
	cliEp, err := fabric.Attach("push-cli", "")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := transport.EncodeSealed(struct {
		Name string
		Raw  []byte
	}{Name: "smart-media-player", Raw: []byte("MDAB")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cliEp.Request(ctx, "push-srv", MsgBundlePush, payload); !errors.Is(err, ErrVersion) {
		t.Fatalf("gob-sealed bundle push: err = %v, want ErrVersion", err)
	}
	if pushed != 0 {
		t.Fatalf("backend stored %d bundle(s) from a refused frame", pushed)
	}
	if err := NewClient(cliEp, "push-srv").PushBundle(ctx, "smart-media-player", []byte("MDAB")); err != nil || pushed != 1 {
		t.Fatalf("fast-frame push: err = %v, backend calls = %d", err, pushed)
	}
}

// desyncedAttrCount is a frame whose first event claims 1<<16 attributes
// and is followed by bytes that parse as a second event: skipping the
// attribute loop on the out-of-range count would deliver both.
func desyncedAttrCount() []byte {
	b := transport.AppendUint(nil, 9) // id
	b = transport.AppendUint(b, 0)    // lost
	b = transport.AppendUint(b, 2)    // count
	for seq := uint64(1); seq <= 2; seq++ {
		b = transport.AppendUint(b, seq)
		b = transport.AppendString(b, "app.started")
		b = transport.AppendString(b, "ctl")
		b = transport.AppendTime(b, time.Unix(0, 0))
		if seq == 1 {
			b = transport.AppendUint(b, 1<<16)
		} else {
			b = transport.AppendUint(b, 0)
		}
	}
	return transport.SealFast(transport.OpEventBatch, b)
}

func TestEventBatchAttrCountOutOfRange(t *testing.T) {
	if id, _, events, err := decodeEventBatch(desyncedAttrCount()); err == nil {
		t.Fatalf("frame with an unbacked attribute count decoded: id=%d events=%+v", id, events)
	}
}

// FuzzEventBatch: decodeEventBatch is the only reader of pushed watch
// frames. Any input yields a typed error or a value that survives a
// re-encode/decode round trip; it never panics and never allocates in
// proportion to a count the frame merely claims.
func FuzzEventBatch(f *testing.F) {
	golden := goldenWire(f, "event-batch.bin")
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(desyncedAttrCount())
	f.Add(transport.SealFast(transport.OpEventBatch, []byte{1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}))
	f.Add(goldenWire(f, "bundle-push.bin"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id, lost, events, err := decodeEventBatch(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+256*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		id2, lost2, events2, err := decodeEventBatch(encodeEventBatch(id, lost, events))
		if err != nil || id2 != id || lost2 != lost || !reflect.DeepEqual(events2, events) {
			t.Fatalf("round trip changed the batch: id %d->%d lost %d->%d err=%v\n%+v\n%+v",
				id, id2, lost, lost2, err, events, events2)
		}
	})
}
