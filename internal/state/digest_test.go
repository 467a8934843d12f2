package state_test

import (
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/obs"
	"mdagent/internal/state"
	"mdagent/internal/wsdl"
)

// digestBytes reads mdagent_state_digest_bytes_total, the bytes fed to
// ComponentDigest in this process.
func digestBytes() int64 {
	return obs.Default.Counter("mdagent_state_digest_bytes_total").Value()
}

// sessionChain builds the restore workload's record shape: a 64 KiB
// blob and a small cursor, captured as a base, then k deltas that touch
// the cursor alone. It returns the record and the bytes a reassembly
// that hashes each component once must feed ComponentDigest: the base's
// components, then each delta's.
func sessionChain(t *testing.T, k int) (state.SnapshotRecord, int64) {
	t.Helper()
	a := app.New("session", "h1", wsdl.Description{Name: "session"})
	cursor := app.NewState("cursor")
	cursor.Set("cursor", "0")
	for _, c := range []app.Component{app.NewBlob("data", app.KindData, make([]byte, 64<<10)), cursor} {
		if err := a.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	base := mustWrap(t, a)
	frame, err := state.EncodeSnapshot(app.TaggedSnapshot{Tag: "replica", At: time.Unix(1, 0), Wrap: base})
	if err != nil {
		t.Fatal(err)
	}
	rec := state.SnapshotRecord{
		App: "session", Host: "h1", Seq: 1, BaseSeq: 1, At: time.Unix(1, 0),
		Frame: frame, StateDigest: state.WrapDigest(base),
	}
	var want int64
	for _, b := range base.Components {
		want += int64(len(b))
	}
	prev := base
	for i := 1; i <= k; i++ {
		seq := a.ChangeSeq()
		cursor.Set("cursor", strconv.Itoa(i))
		d := deltaFor(t, a, prev, seq)
		if _, ok := d.Components["data"]; ok || len(d.Components) != 1 {
			t.Fatalf("delta %d carries %d components, want the cursor alone", i, len(d.Components))
		}
		for _, b := range d.Components {
			want += int64(len(b))
		}
		raw, err := state.EncodeDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		rec.Deltas = append(rec.Deltas, raw)
		rec.Seq++
		prev = mustWrap(t, a)
		rec.StateDigest = state.WrapDigest(prev)
	}
	return rec, want
}

// TestChainReassemblyHashesEachComponentOnce: reassembling a base and k
// deltas that touch only the small component hashes the base once plus
// each delta's changed bytes — not the whole state once per delta — and
// the digest it hands back is the record's own.
func TestChainReassemblyHashesEachComponentOnce(t *testing.T) {
	for _, k := range []int{0, 1, 4, 8} {
		rec, want := sessionChain(t, k)
		before := digestBytes()
		_, digest, err := rec.SnapshotDigest()
		if got := digestBytes() - before; got != want {
			t.Errorf("k=%d: reassembly hashed %d bytes, want %d (the base once plus each delta's changes)", k, got, want)
		}
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if digest != rec.StateDigest {
			t.Fatalf("k=%d: reassembly digest differs from the record's StateDigest", k)
		}
		// Snapshot alone hashes nothing when there is no delta to check.
		before = digestBytes()
		if _, err := rec.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if got := digestBytes() - before; k == 0 && got != 0 {
			t.Errorf("a base-only Snapshot hashed %d bytes", got)
		}
	}
}

// TestChainReassemblyRefusesAtTheSameDelta: checking each delta against
// the carried digests is as strict as hashing the base each time — a
// reordered delta and a delta of another app fail at the delta they
// are, with ErrBaseMismatch.
func TestChainReassemblyRefusesAtTheSameDelta(t *testing.T) {
	rec, _ := sessionChain(t, 3)
	rec.Deltas[1], rec.Deltas[2] = rec.Deltas[2], rec.Deltas[1]
	if _, _, err := rec.SnapshotDigest(); !errors.Is(err, state.ErrBaseMismatch) || !strings.Contains(err.Error(), "delta 2/3") {
		t.Fatalf("reordered chain: err = %v, want ErrBaseMismatch at delta 2/3", err)
	}

	rec, _ = sessionChain(t, 3)
	d, err := state.DecodeDelta(rec.Deltas[2])
	if err != nil {
		t.Fatal(err)
	}
	d.App = "other"
	if rec.Deltas[2], err = state.EncodeDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Snapshot(); !errors.Is(err, state.ErrBaseMismatch) || !strings.Contains(err.Error(), "delta 3/3") {
		t.Fatalf("another app's delta: err = %v, want ErrBaseMismatch at delta 3/3", err)
	}
}

// TestDigestedWrapMatchesWrapDigest: the digest a DigestedWrap carries
// through Apply is WrapDigest of the wrap it holds, and Apply leaves its
// receiver as it was.
func TestDigestedWrapMatchesWrapDigest(t *testing.T) {
	a := testApp(t, "x", "h1")
	base := state.NewDigestedWrap(mustWrap(t, a))
	seq := a.ChangeSeq()
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	a.Coordinator().Set("track", "t2")
	d := deltaFor(t, a, base.Wrap, seq)

	next, err := base.Apply(d)
	if err != nil {
		t.Fatal(err)
	}
	if next.Digest() != state.WrapDigest(next.Wrap) || next.Digest() != state.WrapDigest(mustWrap(t, a)) {
		t.Fatal("carried digest differs from WrapDigest of the applied wrap")
	}
	if base.Digest() != d.BaseDigest {
		t.Fatal("Apply changed its receiver")
	}
	if _, err := next.Apply(d); !errors.Is(err, state.ErrBaseMismatch) {
		t.Fatalf("a delta applied twice: err = %v, want ErrBaseMismatch", err)
	}
}

// TestDigestedWrapSharedAcrossGoroutines: a warm base is read by the
// sending and the receiving side of an engine at once; its lazily
// computed digests must be safe to read and build on concurrently.
func TestDigestedWrapSharedAcrossGoroutines(t *testing.T) {
	a := testApp(t, "x", "h1")
	w := mustWrap(t, a)
	want := state.WrapDigest(w)
	seq := a.ChangeSeq()
	st, _ := a.Component("st")
	st.(*app.StateComponent).Set("cursor", "8")
	d := deltaFor(t, a, w, seq)
	next := state.WrapDigest(mustWrap(t, a))

	base := state.NewDigestedWrap(w)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := base.Digest(); got != want {
				t.Error("concurrent Digest differs from WrapDigest")
			}
			out, err := base.Apply(d)
			if err != nil || out.Digest() != next {
				t.Errorf("concurrent Apply: err %v", err)
			}
		}()
	}
	wg.Wait()
}
