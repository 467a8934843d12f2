package state

// This file records snapshot-v1.bin and delta-v1.bin with the last
// encoders that wrote version 1 snapshot and delta frames (a gob payload
// behind the header). It compiles against that tree only (commit
// 9387257), so it lives under testdata, which the go tool skips. To
// re-record:
//
//	git archive 9387257 | tar -x -C /tmp/parent
//	cp internal/state/testdata/wire/gen_test.go /tmp/parent/internal/state/
//	STATE_V1=$PWD/internal/state/testdata/wire \
//	    go test -C /tmp/parent -run TestWriteV1Frames ./internal/state
//
// The snapshot holds goldenWrap; the delta applies to it, replacing
// song1 and the coordinator state (wrapframe_test.go's goldenSnapshot and
// goldenDelta are the same values).

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdagent/internal/app"
)

func TestWriteV1Frames(t *testing.T) {
	out := os.Getenv("STATE_V1")
	if out == "" {
		t.Skip("STATE_V1 not set")
	}
	snap, err := EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: time.Unix(1_700_000_000, 5), Wrap: goldenWrap, ChangeSeq: 7})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := EncodeDelta(WrapDelta{
		App: "player", FromHost: "hostB", BaseDigest: WrapDigest(goldenWrap),
		Components: map[string][]byte{"song1": []byte("ID3-golden-song-2")},
		Kinds:      map[string]app.ComponentKind{"song1": app.KindData},
		CoordState: map[string]string{"track": "song2"},
		Profile:    goldenWrap.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, frame := range map[string][]byte{"snapshot-v1.bin": snap, "delta-v1.bin": delta} {
		if frame[4] != 1 {
			t.Fatalf("%s: written as v%d", name, frame[4])
		}
		if err := os.WriteFile(filepath.Join(out, name), frame, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
