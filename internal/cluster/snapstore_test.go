package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// diskCenter is a center over a durable store directory that can be
// closed and reopened on the same fabric, like a restarted mdregistry.
type diskCenter struct {
	t     *testing.T
	fab   *transport.LocalFabric
	dir   string
	space string
	cfg   Config

	*Center
	db *store.Store
	ep *transport.Endpoint
}

func openDiskCenter(t *testing.T, fab *transport.LocalFabric, dir, space string, cfg Config) *diskCenter {
	t.Helper()
	d := &diskCenter{t: t, fab: fab, dir: dir, space: space, cfg: cfg}
	d.open()
	t.Cleanup(d.close)
	return d
}

func (d *diskCenter) open() {
	d.t.Helper()
	var err error
	if d.db, err = store.Open(d.dir); err != nil {
		d.t.Fatal(err)
	}
	reg, err := registry.New(d.db)
	if err != nil {
		d.t.Fatal(err)
	}
	if d.ep, err = d.fab.Attach(CenterEndpointName(d.space), ""); err != nil {
		d.t.Fatal(err)
	}
	d.Center = NewCenter(d.space, reg, d.ep, d.cfg)
}

func (d *diskCenter) close() {
	if d.Center == nil {
		return
	}
	d.Center.Stop()
	d.ep.Close()
	if err := d.db.Close(); err != nil {
		d.t.Errorf("close store: %v", err)
	}
	d.Center = nil
}

// reopen restarts the center; tamper, if given, edits the closed store
// directory first — the stand-in for what a crash left on disk.
func (d *diskCenter) reopen(tamper func(db *store.Store)) {
	d.t.Helper()
	d.close()
	if tamper != nil {
		db, err := store.Open(d.dir)
		if err != nil {
			d.t.Fatal(err)
		}
		tamper(db)
		if err := db.Close(); err != nil {
			d.t.Fatal(err)
		}
	}
	d.open()
}

// snapView is everything a restart must preserve about a snapshot record.
type snapView struct {
	Found, DurableFound bool
	Digest, DurDigest   [32]byte
	Seq, BaseSeq        uint64
	Chain               int
	Durable             bool
	Host, Space         string
	AtNano              int64
	Version             vclock.Version
	Deleted             bool
}

func viewOf(t *testing.T, c *Center, appName string) snapView {
	t.Helper()
	var v snapView
	digest := func(sr state.SnapshotRecord) [32]byte {
		ts, err := sr.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return state.WrapDigest(ts.Wrap)
	}
	if sr, ok := c.LatestSnapshot(appName); ok {
		v.Found, v.Digest = true, digest(sr)
		v.Seq, v.BaseSeq, v.Chain, v.Durable = sr.Seq, sr.BaseSeq, len(sr.Deltas), sr.Durable
		v.Host, v.Space, v.AtNano = sr.Host, sr.Space, sr.At.UnixNano()
		if v.Digest != sr.StateDigest {
			t.Fatalf("record's frames reassemble to %x, head says %x", v.Digest[:4], sr.StateDigest[:4])
		}
	}
	if sr, ok := c.LatestDurableSnapshot(appName); ok {
		v.DurableFound, v.DurDigest = true, digest(sr)
	}
	c.mu.Lock()
	rec := c.records[snapKey(appName)]
	c.mu.Unlock()
	v.Version, v.Deleted = rec.Version, rec.Deleted
	return v
}

func mustPut(t *testing.T, c *Center, put state.SnapshotPut) state.SnapshotStamp {
	t.Helper()
	stamp, err := c.PutSnapshot(context.Background(), put)
	if err != nil {
		t.Fatal(err)
	}
	return stamp
}

// putChain writes a base valued "0" and then deltas 0→1→…→n.
func putChain(t *testing.T, c *Center, appName string, n int) {
	t.Helper()
	mustPut(t, c, mustSnapshot(t, appName, "hostA", "0"))
	for i := 1; i <= n; i++ {
		mustPut(t, c, mustDelta(t, appName, "hostA", strconv.Itoa(i-1), strconv.Itoa(i)))
	}
}

// markHead stamps player's current record durable, as a write that
// collected its acks would.
func markHead(c *Center) {
	c.mu.Lock()
	rec := c.records[snapKey("player")]
	c.mu.Unlock()
	c.markDurable(rec.Key, rec.Version)
}

func chainKeys(c *Center) []string { return c.reg.Store().Keys(chainKeyPrefix) }

// TestSnapshotRecordSurvivesRestart: in every state the write path can
// leave a snapshot record in, a center reopened over the same directory
// serves a record value-identical to the one it served before.
func TestSnapshotRecordSurvivesRestart(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, c *Center)
		check func(t *testing.T, v snapView)
	}{
		{"base and deltas", func(t *testing.T, c *Center) {
			putChain(t, c, "player", 3)
		}, func(t *testing.T, v snapView) {
			if v.Seq != 4 || v.BaseSeq != 1 || v.Chain != 3 || v.Durable {
				t.Fatalf("unexpected shape %+v", v)
			}
		}},
		{"center-side compaction", func(t *testing.T, c *Center) {
			putChain(t, c, "player", MaxDeltaChain+2)
		}, func(t *testing.T, v snapView) {
			if v.BaseSeq == 1 || v.Chain > MaxDeltaChain {
				t.Fatalf("chain was never compacted: %+v", v)
			}
		}},
		{"durable mark", func(t *testing.T, c *Center) {
			putChain(t, c, "player", 2)
			markHead(c)
		}, func(t *testing.T, v snapView) {
			if !v.Durable || !v.DurableFound || v.DurDigest != v.Digest {
				t.Fatalf("durable mark missing: %+v", v)
			}
		}},
		{"remote full-record apply", func(t *testing.T, c *Center) {
			putChain(t, c, "player", 1)
			donor, _ := newCenterPair(t)
			putChain(t, donor, "player", 4)
			markHead(donor)
			donor.mu.Lock()
			rec := donor.records[snapKey("player")]
			donor.mu.Unlock()
			rec.Version = rec.Version.Merge(vclock.Version{"alpha": 9}) // supersedes the local history
			if won, err := c.apply(rec); err != nil || !won {
				t.Fatalf("apply: won=%v err=%v", won, err)
			}
		}, func(t *testing.T, v snapView) {
			if v.Seq != 5 || v.Chain != 4 || !v.Durable {
				t.Fatalf("remote record not installed: %+v", v)
			}
		}},
		{"conflict-losing apply", func(t *testing.T, c *Center) {
			putChain(t, c, "player", 2)
			loser := Record{Key: snapKey("player"), Kind: RecordSnapshot, Origin: "aaa",
				Version: vclock.Version{"aaa": 1},
				Snap:    state.SnapshotRecord{App: "player", Seq: 1}}
			if won, err := c.apply(loser); err != nil || won {
				t.Fatalf("apply: won=%v err=%v", won, err)
			}
		}, func(t *testing.T, v snapView) {
			if v.Version.Counter("aaa") != 1 || v.Version.Counter("alpha") != 3 || v.Chain != 2 {
				t.Fatalf("merged version not kept: %+v", v)
			}
		}},
		{"dropped", func(t *testing.T, c *Center) {
			putChain(t, c, "player", 2)
			markHead(c)
			if err := c.DropSnapshot(context.Background(), "player", "hostA"); err != nil {
				t.Fatal(err)
			}
			if keys := chainKeys(c); len(keys) != 0 {
				t.Fatalf("tombstone left chain keys %v", keys)
			}
		}, func(t *testing.T, v snapView) {
			if v.Found || v.DurableFound || !v.Deleted {
				t.Fatalf("tombstone not in force: %+v", v)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fab := transport.NewLocalFabric(nil)
			t.Cleanup(func() { fab.Close() })
			c := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
			tc.setup(t, c.Center)
			before := viewOf(t, c.Center, "player")
			tc.check(t, before)
			keys := chainKeys(c.Center)

			c.reopen(nil)
			after := viewOf(t, c.Center, "player")
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("record changed across the restart:\nbefore %+v\nafter  %+v", before, after)
			}
			if got := chainKeys(c.Center); !reflect.DeepEqual(got, keys) {
				t.Fatalf("chain keys changed across a clean restart:\nbefore %v\nafter  %v", keys, got)
			}
			// The reopened record takes the next write like the live one.
			if before.Found {
				cur := strconv.Itoa(int(before.Seq - 1))
				stamp := mustPut(t, c.Center, mustDelta(t, "player", "hostA", cur, "next"))
				if stamp.Seq != before.Seq+1 {
					t.Fatalf("post-restart delta stamped seq %d, want %d", stamp.Seq, before.Seq+1)
				}
				if rec, _ := c.LatestSnapshot("player"); snapValue(t, rec) != "next" {
					t.Fatal("post-restart delta did not chain")
				}
			}
		})
	}
}

// TestDeltaOnDurableRecordIsNotDurable: a delta put starts unmarked even
// when the record it extends carries the mark — the mark belongs to the
// write that collected the acks — so an un-acked write cannot come back
// from a restart as the durable copy failover prefers.
func TestDeltaOnDurableRecordIsNotDurable(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
	putChain(t, c.Center, "player", 1)
	markHead(c.Center)
	mustPut(t, c.Center, mustDelta(t, "player", "hostA", "1", "2"))
	if v := viewOf(t, c.Center, "player"); v.Durable || v.Seq != 3 || !v.DurableFound {
		t.Fatalf("head after an un-acked delta on a durable record: %+v", v)
	}
	if dur, _ := c.LatestDurableSnapshot("player"); dur.Seq != 2 {
		t.Fatalf("durable stash at seq %d, want the marked write (2)", dur.Seq)
	}
	c.reopen(nil)
	if v := viewOf(t, c.Center, "player"); v.Durable || v.DurableFound || v.Seq != 3 {
		t.Fatalf("after the restart: %+v; the un-acked head must not be served as durable", v)
	}
}

// TestSnapshotChainCrashWindows edits the closed store the way a crash
// between two of persist's writes would have left it.
func TestSnapshotChainCrashWindows(t *testing.T) {
	key := snapKey("player")
	rig := func(t *testing.T) (*diskCenter, *Center) {
		fab := transport.NewLocalFabric(nil)
		t.Cleanup(func() { fab.Close() })
		a := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
		reg, err := registry.New(store.OpenMemory())
		if err != nil {
			t.Fatal(err)
		}
		ep, err := fab.Attach(CenterEndpointName("beta"), "")
		if err != nil {
			t.Fatal(err)
		}
		b := NewCenter("beta", reg, ep, testConfig())
		b.AddPeer("alpha", CenterEndpointName("alpha"))
		putChain(t, a.Center, "player", 3)
		a.AddPeer("beta", CenterEndpointName("beta"))
		if err := b.SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := viewOf(t, b, "player"); got.Seq != 4 {
			t.Fatalf("peer holds seq %d, want 4", got.Seq)
		}
		return a, b
	}

	for _, missing := range []string{"a delta", "the base"} {
		t.Run("head ahead of its chain: "+missing+" missing", func(t *testing.T) {
			a, b := rig(t)
			want := viewOf(t, a.Center, "player")
			a.reopen(func(db *store.Store) {
				k := chainDeltaKey(key, 1, 1)
				if missing == "the base" {
					k = chainBaseKey(key, 1)
				}
				if _, err := db.Get(k); err != nil {
					t.Fatalf("%s is not on disk: %v", k, err)
				}
				if err := db.Delete(k); err != nil {
					t.Fatal(err)
				}
			})
			if _, ok := a.LatestSnapshot("player"); ok {
				t.Fatal("a record with a torn chain was served")
			}
			if keys := append(chainKeys(a.Center), a.reg.Store().Keys(fedKeyPrefix+key)...); len(keys) != 0 {
				t.Fatalf("the torn record's keys were not swept: %v", keys)
			}
			a.AddPeer("beta", CenterEndpointName("beta"))
			a.syncOnce() // one anti-entropy round against the only peer repairs it
			if got := viewOf(t, a.Center, "player"); !reflect.DeepEqual(got, want) {
				t.Fatalf("repaired record differs:\nwant %+v\ngot  %+v", want, got)
			}
			if got, want := viewOf(t, a.Center, "player"), viewOf(t, b, "player"); got.Digest != want.Digest {
				t.Fatal("repaired record differs from the peer's")
			}
			a.reopen(nil)
			if got := viewOf(t, a.Center, "player"); !reflect.DeepEqual(got, want) {
				t.Fatalf("repaired record did not survive the next restart: %+v", got)
			}
		})
	}

	t.Run("keys beyond the head are ignored and swept", func(t *testing.T) {
		a, _ := rig(t)
		want := viewOf(t, a.Center, "player")
		keys := chainKeys(a.Center)
		a.reopen(func(db *store.Store) {
			for _, k := range []string{
				chainDeltaKey(key, 1, 3),         // the delta of a put whose head never landed
				chainBaseKey(key, 2),             // a new generation's base, …
				chainDeltaKey(key, 2, 0),         // … its chain, and no head naming it
				chainBaseKey(snapKey("gone"), 7), // a generation whose record is gone altogether
				chainKeyPrefix + "not-a-chain-key",
			} {
				if err := db.Put(k, []byte("left behind by a crash")); err != nil {
					t.Fatal(err)
				}
			}
		})
		if got := viewOf(t, a.Center, "player"); !reflect.DeepEqual(got, want) {
			t.Fatalf("orphan keys changed the record:\nwant %+v\ngot  %+v", want, got)
		}
		if got := chainKeys(a.Center); !reflect.DeepEqual(got, keys) {
			t.Fatalf("orphans not swept:\nwant %v\ngot  %v", keys, got)
		}
		stamp := mustPut(t, a.Center, mustDelta(t, "player", "hostA", "3", "4"))
		if stamp.Seq != 5 || stamp.Chain != 4 {
			t.Fatalf("delta after the sweep stamped %+v", stamp)
		}
	})
}

// TestSnapshotChainHoldsOneGeneration: however many puts an app takes —
// deltas, the replicator's re-base frames, center-side compactions — the
// store holds the chain its head names and nothing else.
func TestSnapshotChainHoldsOneGeneration(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
	inst := app.New("player", "hostA", appDesc("player"))
	st := app.NewState("st")
	if err := inst.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	if err := inst.AddComponent(app.NewSizedBlob("payload", app.KindData, 8<<10)); err != nil {
		t.Fatal(err)
	}
	rep := state.NewReplicator("hostA", "alpha",
		func() []*app.Application { return []*app.Application{inst} },
		c.Center, nil, time.Hour, state.Tuning{BudgetBytesPerSec: -1})
	for i := 0; i < 100; i++ {
		st.Set("v", strconv.Itoa(i))
		if err := rep.SyncNow(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if s := rep.Stats(); s.Publishes != 100 || s.FullFrames < 2 || s.DeltaFrames < 2 {
		t.Fatalf("the run did not mix frame kinds: %+v", s)
	}
	rec, _ := c.LatestSnapshot("player")
	keys := chainKeys(c.Center)
	if len(keys) != 1+len(rec.Deltas) {
		t.Fatalf("%d chain keys for a base and %d deltas: %v", len(keys), len(rec.Deltas), keys)
	}
	gens := map[uint64]bool{}
	for _, k := range keys {
		rk, gen, _, ok := parseChainKey(k)
		if !ok || rk != snapKey("player") {
			t.Fatalf("stray chain key %q", k)
		}
		gens[gen] = true
	}
	if len(gens) != 1 {
		t.Fatalf("chain keys span generations %v", gens)
	}
	c.reopen(nil)
	if rec, _ := c.LatestSnapshot("player"); snapValue(t, rec) != "99" {
		t.Fatal("the 100th put did not survive the restart")
	}
}

// TestLegacySnapshotRecordLoadsAndMigrates: testdata/legacy-snap-record.gob
// is a snapshot record (base + 3 deltas, durable) as the last commit with
// the whole-gob layout persisted it — that commit's own
// transport.Encode(Record). It still opens, restores the same value,
// and becomes a chain on its next write.
func TestLegacySnapshotRecordLoadsAndMigrates(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-snap-record.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] == snapHeadMagic {
		t.Fatal("fixture starts with the head magic")
	}
	key := snapKey("player")
	dir := t.TempDir()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(fedKeyPrefix+key, raw); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, dir, "alpha", testConfig())
	v := viewOf(t, c.Center, "player")
	if !v.Found || v.Seq != 4 || v.BaseSeq != 1 || v.Chain != 3 || !v.Durable || !v.DurableFound ||
		v.Version.Counter("alpha") != 4 {
		t.Fatalf("legacy record loaded as %+v", v)
	}
	rec, _ := c.LatestSnapshot("player")
	if got := snapValue(t, rec); got != "3" {
		t.Fatalf("legacy record restores %q, want 3", got)
	}
	if keys := chainKeys(c.Center); len(keys) != 0 {
		t.Fatalf("loading alone wrote chain keys %v", keys)
	}

	stamp := mustPut(t, c.Center, deltaOnRecord(t, rec, "4"))
	if stamp.Seq != 5 || stamp.BaseSeq != 1 || stamp.Chain != 4 {
		t.Fatalf("delta on a legacy record stamped %+v", stamp)
	}
	head, err := c.reg.Store().Get(fedKeyPrefix + key)
	if err != nil || head[0] != snapHeadMagic || len(head) > 256 {
		t.Fatalf("fed/%s after the write: %d bytes, err %v — not a head", key, len(head), err)
	}
	want := []string{chainBaseKey(key, 1)}
	for i := 0; i < 4; i++ {
		want = append(want, chainDeltaKey(key, 1, i))
	}
	if got := chainKeys(c.Center); !reflect.DeepEqual(got, want) {
		t.Fatalf("chain keys %v, want %v", got, want)
	}
	c.reopen(nil)
	rec, _ = c.LatestSnapshot("player")
	if got := snapValue(t, rec); got != "4" || rec.Seq != 5 {
		t.Fatalf("migrated record restores %q at seq %d, want 4 at 5", got, rec.Seq)
	}
}

// deltaOnRecord builds the put a host that restored rec would send next:
// a delta setting "st".v on top of exactly the state rec holds. (mustDelta
// rebuilds its base from scratch, which digests differently from bytes
// another process serialized — gob type ids are per process.)
func deltaOnRecord(t *testing.T, rec state.SnapshotRecord, val string) state.SnapshotPut {
	t.Helper()
	ts, err := rec.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	inst := app.New(rec.App, rec.Host, appDesc(rec.App))
	if err := inst.Unwrap(ts.Wrap); err != nil {
		t.Fatal(err)
	}
	st, _ := inst.Component("st")
	st.(*app.StateComponent).Set("v", val)
	changed, err := inst.WrapComponents([]string{"st"})
	if err != nil {
		t.Fatal(err)
	}
	next, err := state.ApplyDelta(ts.Wrap, state.WrapDelta{
		App: rec.App, BaseDigest: rec.StateDigest,
		Components: changed.Components, Kinds: changed.Kinds,
		CoordState: changed.CoordState, Profile: changed.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := state.EncodeDelta(state.WrapDelta{
		App: rec.App, FromHost: rec.Host, BaseDigest: rec.StateDigest,
		Components: changed.Components, Kinds: changed.Kinds,
		CoordState: changed.CoordState, Profile: changed.Profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	return state.SnapshotPut{
		App: rec.App, Host: rec.Host, At: time.Unix(3, 0), Delta: true, Frame: frame,
		BaseDigest: rec.StateDigest, NewDigest: state.WrapDigest(next),
	}
}

func persistErrors(space string) int64 {
	return obs.Default.Counter("mdagent_fed_persist_errors_total", "space", space).Value()
}

// TestRefusedDiskWriteFailsTheWrite: a center whose store refuses writes
// must not acknowledge them — not to its own caller, and not to a peer
// counting it toward a quorum.
func TestRefusedDiskWriteFailsTheWrite(t *testing.T) {
	ctx := context.Background()

	t.Run("local write", func(t *testing.T) {
		a, _ := newCenterPair(t)
		mustPut(t, a, mustSnapshot(t, "player", "hostA", "0"))
		before := persistErrors("alpha")
		a.reg.Store().Close()
		if _, err := a.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "0", "1")); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("delta put over a closed store: err = %v, want ErrClosed", err)
		}
		if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "editor", "hostA", "0")); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("full put over a closed store: err = %v, want ErrClosed", err)
		}
		if err := a.DropSnapshot(ctx, "player", "hostA"); !errors.Is(err, store.ErrClosed) {
			t.Fatalf("tombstone over a closed store: err = %v, want ErrClosed", err)
		}
		if got := persistErrors("alpha") - before; got != 3 {
			t.Fatalf("persist error counter moved by %d, want 3", got)
		}
		// Memory did not run ahead of the disk.
		if rec, ok := a.LatestSnapshot("player"); !ok || rec.Seq != 1 {
			t.Fatalf("refused writes changed the served record: ok=%v seq=%d", ok, rec.Seq)
		}
		if _, ok := a.LatestSnapshot("editor"); ok {
			t.Fatal("a refused put is being served")
		}
	})

	t.Run("quorum that needs the refusing peer", func(t *testing.T) {
		fab := transport.NewLocalFabric(nil)
		t.Cleanup(func() { fab.Close() })
		mk := func(space string) *Center {
			reg, err := registry.New(store.OpenMemory())
			if err != nil {
				t.Fatal(err)
			}
			ep, err := fab.Attach(CenterEndpointName(space), "")
			if err != nil {
				t.Fatal(err)
			}
			return NewCenter(space, reg, ep, durableConfig(WriteQuorum))
		}
		a, b := mk("alpha"), mk("beta")
		a.AddPeer("beta", CenterEndpointName("beta"))
		b.AddPeer("alpha", CenterEndpointName("alpha"))
		t.Cleanup(a.Stop)
		t.Cleanup(b.Stop)

		mustPut(t, a, mustSnapshot(t, "player", "hostA", "0")) // healthy: beta acks
		before := persistErrors("beta")
		b.reg.Store().Close()
		// The delta push is refused (not applied), the full-record
		// fallback is refused too (error reply): no ack to book.
		if _, err := a.PutSnapshot(ctx, mustDelta(t, "player", "hostA", "0", "1")); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("quorum delta put with the only peer refusing: err = %v, want ErrNotDurable", err)
		}
		if _, err := a.PutSnapshot(ctx, mustSnapshot(t, "player", "hostA", "2")); !errors.Is(err, ErrNotDurable) {
			t.Fatalf("quorum full put with the only peer refusing: err = %v, want ErrNotDurable", err)
		}
		if got := persistErrors("beta") - before; got < 3 {
			t.Fatalf("peer's persist error counter moved by %d, want ≥3 (delta, fallback, full push)", got)
		}
		if rec, _ := b.LatestSnapshot("player"); rec.Seq != 1 {
			t.Fatalf("refusing peer serves seq %d, want the last write it stored (1)", rec.Seq)
		}
		if rec, _ := a.LatestSnapshot("player"); rec.Durable {
			t.Fatal("writer stamped a write durable that no peer stored")
		}
	})
}

func TestParseChainKey(t *testing.T) {
	for _, tc := range []struct {
		key   string
		gen   uint64
		delta int
	}{
		{snapKey("player"), 1, -1},
		{snapKey("player"), 12, 7},
		{snapKey("team/player/b"), 3, -1}, // app names may hold slashes, even a chain suffix
		{snapKey("a/d/1"), 3, 0},
	} {
		k := chainBaseKey(tc.key, tc.gen)
		if tc.delta >= 0 {
			k = chainDeltaKey(tc.key, tc.gen, tc.delta)
		}
		key, gen, delta, ok := parseChainKey(k)
		if !ok || key != tc.key || gen != tc.gen || delta != tc.delta {
			t.Errorf("parseChainKey(%q) = %q, %d, %d, %v", k, key, gen, delta, ok)
		}
	}
	for _, k := range []string{"", "fed/snap/x", chainKeyPrefix, chainKeyPrefix + "snap/x/b", chainKeyPrefix + "snap/x/1/d/-1", chainKeyPrefix + "snap/x/y/d/1"} {
		if _, _, _, ok := parseChainKey(k); ok {
			t.Errorf("parseChainKey(%q) accepted", k)
		}
	}
}

func testHead() (Record, diskChain) {
	put := state.SnapshotRecord{
		App: "player", Host: "hostA", Space: "alpha", Seq: 12, BaseSeq: 9,
		At: time.Unix(0, 1700000000000000001), Durable: true,
	}
	copy(put.StateDigest[:], strings.Repeat("\xa5", 32))
	return Record{
		Key: snapKey("player"), Kind: RecordSnapshot, Origin: "alpha",
		Version: vclock.Version{"alpha": 12, "beta": 3}, Snap: put,
	}, diskChain{gen: 4, deltas: 3}
}

func TestSnapHeadRoundTrip(t *testing.T) {
	rec, dc := testHead()
	raw := appendSnapHead(nil, rec, dc)
	got, gotDC, err := decodeSnapHead(raw)
	if err != nil || gotDC != dc || !reflect.DeepEqual(got, rec) {
		t.Fatalf("decoded %+v %+v (err %v), want %+v %+v", got, gotDC, err, rec, dc)
	}
	// What an older binary does with a head: gob refuses it, which that
	// binary treats as a corrupt frame and repairs by anti-entropy.
	var old Record
	if err := transport.Decode(raw, &old); err == nil {
		t.Fatal("gob decoded a snapshot head")
	}
	for n := 0; n < len(raw); n++ {
		if _, _, err := decodeSnapHead(raw[:n]); !errors.Is(err, errBadSnapHead) {
			t.Fatalf("head cut to %d of %d bytes: err = %v, want errBadSnapHead", n, len(raw), err)
		}
	}
}

// FuzzSnapHead: decodeSnapHead reads bytes from a disk a crash left
// behind. Any input yields errBadSnapHead or a head that survives a
// re-encode/decode round trip; it never panics and never allocates in
// proportion to a count the bytes merely claim.
func FuzzSnapHead(f *testing.F) {
	rec, dc := testHead()
	head := appendSnapHead(nil, rec, dc)
	f.Add(head)
	f.Add(head[:len(head)-20])                                                     // torn inside the digest
	f.Add([]byte{snapHeadMagic})                                                   // magic and nothing else
	f.Add([]byte{snapHeadMagic, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})               // 4 Gi version entries claimed
	f.Add(append(head[:len(head)-2:len(head)-2], 0xff, 0xff, 0xff, 0xff, 0x7f, 4)) // absurd chain length
	f.Add([]byte("left behind by a crash"))
	if legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-snap-record.gob")); err == nil {
		f.Add(legacy[:256])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, dc, err := decodeSnapHead(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, errBadSnapHead) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		again, againDC, err := decodeSnapHead(appendSnapHead(nil, rec, dc))
		if err != nil || againDC != dc || !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the head (err %v):\n%+v %+v\n%+v %+v", err, rec, dc, again, againDC)
		}
	})
}
