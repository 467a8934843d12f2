package cluster

import (
	"bytes"
	"context"
	"encoding/json"
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
	if d.ep, err = d.fab.Attach(CenterEndpointName(d.space), ""); err != nil {
		d.t.Fatal(err)
	}
	if d.Center, err = NewCenter(d.space, d.db, d.ep, d.cfg); err != nil {
		d.t.Fatal(err)
	}
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

func chainKeys(c *Center) []string { return c.db.Keys(chainKeyPrefix) }

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
		{"refused delta", func(t *testing.T, c *Center) {
			putChain(t, c, "player", maxDeltaChain)
			keys := chainKeys(c)
			next := strconv.Itoa(maxDeltaChain + 1)
			if _, err := c.PutSnapshot(context.Background(), mustDelta(t, "player", "hostA", strconv.Itoa(maxDeltaChain), next)); !errors.Is(err, state.ErrNeedFull) {
				t.Fatalf("delta onto a full chain: err = %v, want ErrNeedFull", err)
			}
			if got := chainKeys(c); !reflect.DeepEqual(got, keys) {
				t.Fatalf("a refused delta changed the chain keys:\nbefore %v\nafter  %v", keys, got)
			}
		}, func(t *testing.T, v snapView) {
			if v.Seq != maxDeltaChain+1 || v.BaseSeq != 1 || v.Chain != maxDeltaChain {
				t.Fatalf("refused delta changed the record: %+v", v)
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
			// The reopened record takes the next write like the live one:
			// a full chain still refuses it.
			if before.Found {
				cur := strconv.Itoa(int(before.Seq - 1))
				if before.Chain == maxDeltaChain {
					if _, err := c.PutSnapshot(context.Background(), mustDelta(t, "player", "hostA", cur, "next")); !errors.Is(err, state.ErrNeedFull) {
						t.Fatalf("post-restart delta onto a full chain: err = %v, want ErrNeedFull", err)
					}
					return
				}
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
		ep, err := fab.Attach(CenterEndpointName("beta"), "")
		if err != nil {
			t.Fatal(err)
		}
		b := volatileCenter("beta", ep, testConfig())
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
			if keys := append(chainKeys(a.Center), a.db.Keys(fedKeyPrefix+key)...); len(keys) != 0 {
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
// deltas, and the full frames that answer the center's refusals — the
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
		c.Center, nil, time.Hour, state.Tuning{})
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

// TestLegacySnapshotRecordIsRefused: testdata/legacy-snap-record.gob is a
// snapshot record (base + 3 deltas, durable) as the last commit with the
// whole-gob layout persisted it — that commit's own
// transport.Encode(Record). A live snapshot record in that layout is
// refused, never served without the checks a chain gets on load.
func TestLegacySnapshotRecordIsRefused(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "legacy-snap-record.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] == snapHeadMagic {
		t.Fatal("fixture starts with the head magic")
	}
	var r Record
	if err := transport.Decode(raw, &r); err != nil || r.Kind != RecordSnapshot || r.Deleted {
		t.Fatalf("fixture decodes to kind %v, deleted %v (err %v); want a live snapshot record", r.Kind, r.Deleted, err)
	}
	dir := t.TempDir()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put(fedKeyPrefix+snapKey("player"), raw); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	assertLayoutRefused(t, dir, "alpha")
}

func persistErrors(space string) int64 {
	return obs.Default.Counter("mdagent_fed_persist_errors_total", "space", space).Value()
}

// TestUnreadableValueCostsOnlyItself: a fed/ value the center cannot read
// back — a bundle record whose gob was cut short — is skipped when the
// center loads its store. The records that sort after it still load, no
// chain of a loaded head is swept, on that open or the next, and a later
// write of the key stores it again.
func TestUnreadableValueCostsOnlyItself(t *testing.T) {
	ctx := context.Background()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	dir := t.TempDir()
	w := openDiskCenter(t, fab, dir, "alpha", testConfig())
	if err := w.PutBundle(ctx, "editor", bytes.Repeat([]byte("b"), 70<<10)); err != nil {
		t.Fatal(err)
	}
	putChain(t, w.Center, "player", 2)
	want := struct {
		Player snapView
		Chain  []string
	}{viewOf(t, w.Center, "player"), chainKeys(w.Center)}
	if len(want.Chain) != 3 {
		t.Fatalf("chain keys = %v, want a base and 2 deltas", want.Chain)
	}
	w.reopen(func(db *store.Store) {
		k := fedKeyPrefix + bundleKey("editor")
		raw, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Put(k, raw[:len(raw)/2]); err != nil {
			t.Fatal(err)
		}
	})
	w.close()

	d := openDiskCenter(t, fab, dir, "alpha", testConfig())
	for open := 1; open <= 2; open++ {
		if open > 1 {
			d.open()
		}
		if got := viewOf(t, d.Center, "player"); !reflect.DeepEqual(got, want.Player) {
			t.Fatalf("open %d: player = %+v, want %+v", open, got, want.Player)
		}
		if got := chainKeys(d.Center); !reflect.DeepEqual(got, want.Chain) {
			t.Fatalf("open %d: chain keys = %v, want %v", open, got, want.Chain)
		}
		if _, found, _ := d.GetBundle(ctx, "editor"); found {
			t.Fatalf("open %d: the unreadable bundle is served", open)
		}
		d.close()
	}

	d.open()
	if err := d.PutBundle(ctx, "editor", []byte("bundle bytes")); err != nil {
		t.Fatal(err)
	}
	d.reopen(nil)
	if raw, found, err := d.GetBundle(ctx, "editor"); err != nil || !found || string(raw) != "bundle bytes" {
		t.Fatalf("rewritten bundle after reopen = %q, %v, %v", raw, found, err)
	}
}

// TestRefusedDiskWriteFailsTheWrite: a center whose store refuses writes
// must not acknowledge them — not to its own caller, and not to a peer
// counting it toward a quorum.
func TestRefusedDiskWriteFailsTheWrite(t *testing.T) {
	ctx := context.Background()

	t.Run("local write", func(t *testing.T) {
		fab := transport.NewLocalFabric(nil)
		t.Cleanup(func() { fab.Close() })
		a := openDiskCenter(t, fab, t.TempDir(), "alpha", testConfig())
		mustPut(t, a.Center, mustSnapshot(t, "player", "hostA", "0"))
		before := persistErrors("alpha")
		a.db.Close()
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
		ep, err := fab.Attach(CenterEndpointName("alpha"), "")
		if err != nil {
			t.Fatal(err)
		}
		a := volatileCenter("alpha", ep, durableConfig(WriteQuorum))
		b := openDiskCenter(t, fab, t.TempDir(), "beta", durableConfig(WriteQuorum))
		a.AddPeer("beta", CenterEndpointName("beta"))
		b.AddPeer("alpha", CenterEndpointName("alpha"))
		t.Cleanup(a.Stop)

		mustPut(t, a, mustSnapshot(t, "player", "hostA", "0")) // healthy: beta acks
		before := persistErrors("beta")
		b.db.Close()
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

// TestV1FrameStoreServes: a store written by the last build whose
// snapshot and delta frames were version 1 (testdata/v1-frames/gen_test.go
// records it) opens and serves the same records — the app's installation
// and a snapshot record reassembling to the same digest — with nothing
// rewritten. A v3 delta then chains onto the v1 frames, and the mixed
// chain survives a reopen.
func TestV1FrameStoreServes(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v1-frames", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Player snapView
		Chain  []string
		App    registry.AppRecord
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "v1-frames", "store"))); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	d := openDiskCenter(t, fab, dir, "alpha", testConfig())
	if got := viewOf(t, d.Center, "player"); !reflect.DeepEqual(got, want.Player) {
		t.Fatalf("player = %+v, want %+v", got, want.Player)
	}
	if got := chainKeys(d.Center); !reflect.DeepEqual(got, want.Chain) {
		t.Fatalf("chain keys = %v, want %v", got, want.Chain)
	}
	if got, found, _ := d.LookupApp(context.Background(), "player", "hostA"); !found || !reflect.DeepEqual(got, want.App) {
		t.Fatalf("app = %+v (found %v), want %+v", got, found, want.App)
	}
	sr, _ := d.LatestSnapshot("player")
	for i, f := range append([][]byte{sr.Frame}, sr.Deltas...) {
		if f[4] != 1 {
			t.Fatalf("frame %d is v%d: the open rewrote it", i, f[4])
		}
	}

	// The delta is built on the reassembled state: a state component's
	// gob bytes carry type ids of the process that captured it.
	ts, err := sr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	st := app.NewState("st")
	st.Set("v", "3")
	stBytes, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	delta := state.WrapDelta{App: "player", FromHost: "hostA", BaseDigest: sr.StateDigest,
		Components: map[string][]byte{"st": stBytes}, Kinds: map[string]app.ComponentKind{"st": app.KindState},
		CoordState: ts.Wrap.CoordState, Profile: ts.Wrap.Profile}
	next, err := state.ApplyDelta(ts.Wrap, delta)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := state.EncodeDelta(delta)
	mustPut(t, d.Center, state.SnapshotPut{App: "player", Host: "hostA", At: time.Unix(3, 0), Delta: true,
		Frame: frame, BaseDigest: sr.StateDigest, NewDigest: state.WrapDigest(next)})
	d.reopen(nil)
	sr, _ = d.LatestSnapshot("player")
	if v := snapValue(t, sr); v != "3" || len(sr.Deltas) != 3 || sr.Deltas[2][4] != 3 {
		t.Fatalf("after a v3 delta and a reopen: %q from %d deltas", v, len(sr.Deltas))
	}
}
