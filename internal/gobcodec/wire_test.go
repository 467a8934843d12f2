package gobcodec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/ctl"
	"mdagent/internal/demoapps"
	"mdagent/internal/gobcodec"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/wsdl"
)

func playerRecord() registry.AppRecord {
	return registry.AppRecord{
		Name: "smart-media-player", Host: "hostA", Space: "lab1",
		Description: demoapps.MediaPlayerDesc(),
		Components:  []string{"codec-logic", "player-ui", "song1", "playback-state"},
		Running:     true,
	}
}

// The types the tree actually puts on a wire or a disk. Maps hold at most
// one entry so the reference bytes are fixed.
func wireValues() []any {
	song := owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", Location: "office821",
		SizeBytes: 2 << 20, Attrs: map[string]string{"checksum": "c0ffee"}}
	wrap := app.Wrap{App: "smart-media-player", FromHost: "hostA",
		Components: map[string][]byte{"playback-state": bytes.Repeat([]byte{5}, 700)},
		Kinds:      map[string]app.ComponentKind{"playback-state": app.KindState},
		CoordState: map[string]string{"track": "song1"},
		Profile:    app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}}}
	return []any{
		playerRecord(),
		song,
		owl.Rebinding{Source: song, Action: owl.RebindUseLocal, Target: song, Reason: "it is the song"},
		wsdl.DeviceProfile{Host: "hostB", ScreenWidth: 800, ScreenHeight: 600, MemoryMB: 512, HasAudio: true, HasDisplay: true, Platform: "linux"},
		ctl.MigrateRequest{App: "smart-media-player", To: "hostB"},
		ctl.MigrateResult{App: "smart-media-player", From: "hostA", To: "hostB", Suspend: time.Millisecond,
			Migrate: 2 * time.Millisecond, Resume: 3 * time.Millisecond, BytesMoved: 801, Carried: []string{"playback-state"}, Delta: true},
		wrap,
		state.WrapDelta{App: wrap.App, FromHost: "hostB", BaseDigest: sha256.Sum256([]byte("base")),
			Components: wrap.Components, Kinds: wrap.Kinds, CoordState: wrap.CoordState, Profile: wrap.Profile},
		state.SnapshotRecord{App: wrap.App, Host: "hostA", Space: "lab1", Seq: 9, At: time.Unix(1190000000, 5).UTC(),
			Frame: bytes.Repeat([]byte{1}, 4096), BaseSeq: 7, Deltas: [][]byte{{2, 2}, {3}},
			StateDigest: sha256.Sum256([]byte("state")), Durable: true},
	}
}

func TestWireTypesMatchFreshEncoder(t *testing.T) {
	for _, v := range wireValues() {
		t.Run(reflect.TypeOf(v).String(), func(t *testing.T) { gobcodec.CheckMatchesFreshEncoder(t, v) })
	}
}

// FuzzDecode feeds bytes as a socket or a disk would: whatever they are,
// the codec answers as a fresh gob.Decoder does — both fail, or both yield
// the same record — allocates no more than two fresh decodes would (a
// pooled attempt, then the fresh one that settles an error), and decodes a
// good payload afterwards.
func FuzzDecode(f *testing.F) {
	want := playerRecord()
	valid := gobcodec.FreshEncode(f, want)
	f.Add(valid)
	f.Add([]byte{})
	for _, n := range []int{1, 2, len(valid) / 4, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n])
	}
	for _, i := range []int{0, 1, 2, 3, 10, 40, len(valid) / 3, len(valid) / 2} {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(valid), valid...))
	f.Add(gobcodec.FreshEncode(f, owl.Resource{ID: "not a record"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var viaGob, viaCodec registry.AppRecord
		var m0, m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m0)
		errGob := gob.NewDecoder(bytes.NewReader(data)).Decode(&viaGob)
		runtime.ReadMemStats(&m1)
		errCodec := gobcodec.Decode(data, &viaCodec)
		runtime.ReadMemStats(&m2)

		if (errGob == nil) != (errCodec == nil) {
			t.Fatalf("codec: %v; fresh decoder: %v", errCodec, errGob)
		}
		if errGob == nil && !reflect.DeepEqual(viaCodec, viaGob) {
			t.Fatalf("codec %+v\nfresh %+v", viaCodec, viaGob)
		}
		fresh, codec := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
		if limit := 2*fresh + 1<<16 + 4*uint64(len(data)); codec > limit {
			t.Fatalf("decoding %d bytes allocated %d; a fresh decoder %d (limit %d)", len(data), codec, fresh, limit)
		}
		var again registry.AppRecord
		if err := gobcodec.Decode(valid, &again); err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("valid payload afterwards: %+v, %v", again, err)
		}
	})
}

var sink any

func BenchmarkEncodeAppRecord(b *testing.B) {
	rec := playerRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := gobcodec.Encode(rec)
		if err != nil {
			b.Fatal(err)
		}
		sink = p
	}
}

func BenchmarkDecodeAppRecord(b *testing.B) {
	p := gobcodec.FreshEncode(b, playerRecord())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec registry.AppRecord
		if err := gobcodec.Decode(p, &rec); err != nil {
			b.Fatal(err)
		}
	}
}
