package app

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"mdagent/internal/wsdl"
)

func snapApp(t *testing.T) (*Application, *StateComponent) {
	t.Helper()
	a := New("snap-app", "h1", wsdl.Description{Name: "snap-app"})
	st := NewState("st")
	if err := a.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	return a, st
}

func at(sec int) time.Time { return time.Unix(int64(sec), 0) }

// retained returns a copy of m's history, oldest first.
func retained(m *SnapshotManager) []TaggedSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]TaggedSnapshot(nil), m.history...)
}

// latest returns m's most recent snapshot.
func latest(m *SnapshotManager) (TaggedSnapshot, bool) {
	h := retained(m)
	if len(h) == 0 {
		return TaggedSnapshot{}, false
	}
	return h[len(h)-1], true
}

func TestSnapshotHistoryCapEvictsOldestFirst(t *testing.T) {
	a, st := snapApp(t)
	m := a.Snapshots()
	for i := 1; i <= historyCap+2; i++ {
		st.Set("v", fmt.Sprint(i))
		if _, err := m.Record(fmt.Sprintf("t%d", i), at(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(retained(m)); n != historyCap {
		t.Fatalf("retained %d, want cap %d", n, historyCap)
	}
	// The two oldest are evicted in order; the newest historyCap survive.
	for i := 1; i <= historyCap+2; i++ {
		_, ok := m.Find(fmt.Sprintf("t%d", i))
		if ok != (i > 2) {
			t.Fatalf("t%d kept = %v, want %v", i, ok, i > 2)
		}
	}
	last, ok := latest(m)
	if want := fmt.Sprintf("t%d", historyCap+2); !ok || last.Tag != want {
		t.Fatalf("latest = %+v, want %s", last, want)
	}
}

func TestRollbackToNamedTag(t *testing.T) {
	a, st := snapApp(t)
	m := a.Snapshots()

	st.Set("v", "one")
	a.Coordinator().Set("phase", "one")
	if _, err := m.Record("alpha", at(1)); err != nil {
		t.Fatal(err)
	}
	st.Set("v", "two")
	a.Coordinator().Set("phase", "two")
	if _, err := m.Record("beta", at(2)); err != nil {
		t.Fatal(err)
	}
	st.Set("v", "three")
	a.Coordinator().Set("phase", "three")

	// Roll back past the latest snapshot to the named one.
	if err := m.Rollback("alpha"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("v"); v != "one" {
		t.Fatalf("component after rollback alpha = %q, want one", v)
	}
	if v, _ := a.Coordinator().Get("phase"); v != "one" {
		t.Fatalf("coordinator after rollback alpha = %q, want one", v)
	}

	// Forward again to a later tag.
	if err := m.Rollback("beta"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("v"); v != "two" {
		t.Fatalf("component after rollback beta = %q, want two", v)
	}

	// Duplicate tags: the most recent wins.
	st.Set("v", "four")
	if _, err := m.Record("alpha", at(4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Rollback("alpha"); err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Get("v"); v != "four" {
		t.Fatalf("rollback to duplicated tag = %q, want most recent (four)", v)
	}

	if err := m.Rollback("no-such-tag"); err == nil {
		t.Fatal("rollback to unknown tag succeeded")
	}
}

// TestConcurrentCaptureRollback hammers Record, Rollback, state writes,
// and reads concurrently; run under -race it proves the manager's locking
// holds when the replicator captures while a migration rolls back.
func TestConcurrentCaptureRollback(t *testing.T) {
	a, st := snapApp(t)
	m := a.Snapshots()
	st.Set("v", "seed")
	if _, err := m.Record("base", at(0)); err != nil {
		t.Fatal(err)
	}

	const iters = 300
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := m.Record(fmt.Sprintf("r%d", i%5), at(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Rolling back to a tag that a concurrent Record may be
			// re-recording: must never corrupt, may legitimately miss.
			_ = m.Rollback("base")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			st.Set("v", fmt.Sprint(i))
			a.Coordinator().Set("k", fmt.Sprint(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			latest(m)
			m.Find("base")
		}
	}()
	wg.Wait()

	if len(retained(m)) == 0 {
		t.Fatal("history empty after concurrent run")
	}
	// "base" may have been evicted by the cap under concurrent Records;
	// the latest surviving snapshot must still restore cleanly.
	last, ok := latest(m)
	if !ok {
		t.Fatal("no latest snapshot after concurrent run")
	}
	if err := m.Rollback(last.Tag); err != nil {
		t.Fatal(err)
	}
}

func TestOnRecordHookFires(t *testing.T) {
	a, st := snapApp(t)
	m := a.Snapshots()
	var mu sync.Mutex
	var seen []string
	m.OnRecord(func(ts TaggedSnapshot) {
		mu.Lock()
		seen = append(seen, ts.Tag)
		mu.Unlock()
	})
	st.Set("v", "x")
	if _, err := m.Record("hooked", at(1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "hooked" {
		t.Fatalf("hook saw %v, want [hooked]", seen)
	}
}

// TestCapturedBytesAreImmutable: Snapshot hands out the slice the blob
// holds and Restore keeps the one it is given, so a capture is only safe
// if nothing ever writes into either. Every way a blob's content can
// change — SetContent, Restore, Unwrap — must leave an earlier capture
// holding the old bytes, while a concurrent reader watches it (-race).
func TestCapturedBytesAreImmutable(t *testing.T) {
	a := New("doc", "h1", desc("doc"))
	blob := NewBlob("body", KindData, []byte("first draft"))
	if err := a.AddComponent(blob); err != nil {
		t.Fatal(err)
	}
	ts, err := a.Snapshots().Record("v1", at(1))
	if err != nil {
		t.Fatal(err)
	}
	captured := ts.Wrap.Components["body"]
	view, err := ts.Wrap.View([]string{"body"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Wrap.View([]string{"nope"}); err == nil {
		t.Fatal("View of an unknown component accepted")
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				if string(captured) != "first draft" {
					t.Error("a capture changed under a reader")
					return
				}
			}
		}
	}()

	mine := []byte("second draft")
	blob.SetContent(mine)
	mine[0] = 'S' // the caller keeps its buffer
	if got, _ := blob.Snapshot(); string(got) != "second draft" {
		t.Fatalf("SetContent did not copy: blob holds %q", got)
	}
	if err := blob.Restore([]byte("third draft")); err != nil {
		t.Fatal(err)
	}
	other, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	other.Components["body"] = []byte("fourth draft")
	if err := a.Unwrap(other); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done

	for name, got := range map[string][]byte{
		"the capture": captured, "the history": ts.Wrap.Components["body"], "a view of it": view.Components["body"],
	} {
		if string(got) != "first draft" {
			t.Fatalf("%s now reads %q", name, got)
		}
	}
	if err := a.Snapshots().Rollback("v1"); err != nil {
		t.Fatal(err)
	}
	if got, _ := blob.Snapshot(); string(got) != "first draft" {
		t.Fatalf("rollback restored %q", got)
	}
}
