package app

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/wsdl"
)

func desc(name string) wsdl.Description {
	return wsdl.Description{
		Name: name,
		Services: []wsdl.Service{{
			Name:  "svc",
			Ports: []wsdl.Port{{Name: "p", Operations: []wsdl.Operation{{Name: "op"}}}},
		}},
	}
}

func playerApp(t *testing.T) *Application {
	t.Helper()
	a := New("player", "hostA", desc("player"))
	for _, c := range []Component{
		NewSizedBlob("codec-logic", KindLogic, 600<<10),
		NewUI("main-ui", 400<<10, 1024, 768),
		NewSizedBlob("music-data", KindData, 2<<20),
		NewState("playback-state"),
	} {
		if err := a.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestComponentKinds(t *testing.T) {
	a := playerApp(t)
	if got := a.ComponentsOfKind(KindData); len(got) != 1 || got[0] != "music-data" {
		t.Fatalf("data components = %v", got)
	}
	if got := a.Components(); len(got) != 4 || got[0] != "codec-logic" {
		t.Fatalf("components = %v (registration order expected)", got)
	}
	if _, ok := a.Component("codec-logic"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := a.Component("ghost"); ok {
		t.Fatal("ghost component found")
	}
	if err := a.AddComponent(NewState("playback-state")); err == nil {
		t.Fatal("duplicate component accepted")
	}
}

func TestKindAndRunStateStrings(t *testing.T) {
	if KindLogic.String() != "logic" || KindUI.String() != "ui" || KindData.String() != "data" ||
		KindState.String() != "state" || ComponentKind(0).String() != "invalid" {
		t.Fatal("kind strings wrong")
	}
	if Running.String() != "running" || Suspended.String() != "suspended" || RunState(0).String() != "invalid" {
		t.Fatal("run state strings wrong")
	}
}

func TestBlobSnapshotRestoreChecksum(t *testing.T) {
	b := NewSizedBlob("x", KindData, 1<<16)
	sum := b.Checksum()
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBlob("x", KindData, nil)
	if err := b2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if b2.Checksum() != sum {
		t.Fatal("checksum changed across snapshot/restore")
	}
	if b2.SizeBytes() != 1<<16 {
		t.Fatalf("size = %d", b2.SizeBytes())
	}
}

// TestSizedBlobFillMatchesFormula: the period-doubling fill writes the
// same bytes as the per-byte formula, at sizes around the 256-byte
// period and at the skeleton UI's size, for names of several lengths.
func TestSizedBlobFillMatchesFormula(t *testing.T) {
	for _, name := range []string{"", "x", "main-ui", strings.Repeat("n", 300)} {
		for _, size := range []int64{0, 1, 255, 256, 257, 400<<10 + 3} {
			b := NewSizedBlob(name, KindUI, size)
			if int64(len(b.data)) != size {
				t.Fatalf("name %q: %d bytes, want %d", name, len(b.data), size)
			}
			for i, got := range b.data {
				if want := byte(i*131 + len(name)); got != want {
					t.Fatalf("name %q, size %d: byte %d = %#x, want %#x", name, size, i, got, want)
				}
			}
		}
	}
}

func TestStateComponentRoundTrip(t *testing.T) {
	s := NewState("st")
	s.Set("track", "song-3")
	s.Set("positionMs", "93500")
	if v, ok := s.Get("track"); !ok || v != "song-3" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if s.Len() != 2 || s.SizeBytes() <= 0 {
		t.Fatalf("Len=%d Size=%d", s.Len(), s.SizeBytes())
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewState("st")
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Get("positionMs"); v != "93500" {
		t.Fatalf("restored position = %q", v)
	}
	if err := s2.Restore([]byte("junk")); err == nil {
		t.Fatal("junk restore accepted")
	}
}

func TestCoordinatorObserverNotification(t *testing.T) {
	c := NewCoordinator("player@hostA")
	var mu sync.Mutex
	var got []StateChange
	c.Register("ui1", ObserverFunc(func(ch StateChange) {
		mu.Lock()
		got = append(got, ch)
		mu.Unlock()
	}))
	c.Register("ui2", ObserverFunc(func(ch StateChange) {
		mu.Lock()
		got = append(got, ch)
		mu.Unlock()
	}))
	if !c.Set("track", "t1") {
		t.Fatal("Set rejected while running")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 {
		t.Fatalf("notifications = %d, want 2 (multicast)", len(got))
	}
	if got[0].Key != "track" || got[0].Origin != "player@hostA" || got[0].Seq != 1 {
		t.Fatalf("change = %+v", got[0])
	}
	if v, ok := c.Get("track"); !ok || v != "t1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
}

func TestCoordinatorDeregisterAndLists(t *testing.T) {
	c := NewCoordinator("o")
	n := 0
	c.Register("ui", ObserverFunc(func(StateChange) { n++ }))
	if obs := c.Observers(); len(obs) != 1 || obs[0] != "ui" {
		t.Fatalf("Observers = %v", obs)
	}
	c.Deregister("ui")
	c.Set("k", "v")
	if n != 0 {
		t.Fatal("deregistered observer notified")
	}
}

func TestCoordinatorFreezeRejectsChanges(t *testing.T) {
	c := NewCoordinator("o")
	c.Freeze()
	if c.Set("k", "v") {
		t.Fatal("Set accepted while frozen")
	}
	if !c.Frozen() {
		t.Fatal("Frozen = false")
	}
	c.Thaw()
	if !c.Set("k", "v") {
		t.Fatal("Set rejected after thaw")
	}
}

func TestCoordinatorSyncLinkForwardingAndEchoSuppression(t *testing.T) {
	// Master and clone coordinators linked both ways, as clone-dispatch
	// sets them up. A change at the master must reach the clone exactly
	// once and not bounce back.
	master := NewCoordinator("master")
	clone := NewCoordinator("clone")
	var masterRecv, cloneRecv int

	master.AddLink("clone", func(ch StateChange) { clone.ApplyRemote(ch) })
	clone.AddLink("master", func(ch StateChange) { master.ApplyRemote(ch) })
	master.Register("obs", ObserverFunc(func(StateChange) { masterRecv++ }))
	clone.Register("obs", ObserverFunc(func(StateChange) { cloneRecv++ }))

	master.Set("slide", "7")
	if cloneRecv != 1 {
		t.Fatalf("clone notifications = %d, want 1", cloneRecv)
	}
	if masterRecv != 1 {
		t.Fatalf("master notifications = %d, want 1 (no echo)", masterRecv)
	}
	if v, _ := clone.Get("slide"); v != "7" {
		t.Fatalf("clone state = %q", v)
	}
	if links := master.Links(); len(links) != 1 || links[0] != "clone" {
		t.Fatalf("Links = %v", links)
	}
	master.RemoveLink("clone")
	master.Set("slide", "8")
	if v, _ := clone.Get("slide"); v != "7" {
		t.Fatal("removed link still forwarding")
	}
}

func TestCoordinatorChainedClonesPropagate(t *testing.T) {
	// master -> cloneA -> cloneB: a remote change must flow through
	// intermediate links (origin-based suppression only blocks the
	// immediate back-link).
	master := NewCoordinator("master")
	a := NewCoordinator("cloneA")
	b := NewCoordinator("cloneB")
	master.AddLink("cloneA", func(ch StateChange) { a.ApplyRemote(ch) })
	a.AddLink("master", func(ch StateChange) { master.ApplyRemote(ch) })
	a.AddLink("cloneB", func(ch StateChange) { b.ApplyRemote(ch) })
	b.AddLink("cloneA", func(ch StateChange) { a.ApplyRemote(ch) })

	master.Set("slide", "3")
	if v, _ := b.Get("slide"); v != "3" {
		t.Fatalf("cloneB state = %q, want 3", v)
	}
}

func TestSuspendResume(t *testing.T) {
	a := playerApp(t)
	if err := a.Suspend(); err != nil {
		t.Fatal(err)
	}
	if a.State() != Suspended || !a.Coordinator().Frozen() {
		t.Fatal("suspend did not freeze")
	}
	if err := a.Suspend(); err == nil {
		t.Fatal("double suspend accepted")
	}
	if err := a.Resume(); err != nil {
		t.Fatal(err)
	}
	if a.State() != Running || a.Coordinator().Frozen() {
		t.Fatal("resume did not thaw")
	}
	if err := a.Resume(); err == nil {
		t.Fatal("double resume accepted")
	}
}

func TestWrapSelectedComponents(t *testing.T) {
	a := playerApp(t)
	st, _ := a.Component("playback-state")
	st.(*StateComponent).Set("positionMs", "4200")
	a.Coordinator().Set("track", "song-1")
	if err := a.Suspend(); err != nil {
		t.Fatal(err)
	}

	// Adaptive binding: wrap state only.
	w, err := a.WrapComponents([]string{"playback-state"})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Components) != 1 {
		t.Fatalf("wrapped = %d components", len(w.Components))
	}
	if w.TotalBytes() > 1<<10 {
		t.Fatalf("state-only wrap = %d bytes, suspiciously large", w.TotalBytes())
	}
	if w.CoordState["track"] != "song-1" {
		t.Fatalf("coord state = %v", w.CoordState)
	}

	// Static binding: wrap everything; dominated by the 2 MiB data.
	wAll, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(wAll.Components) != 4 {
		t.Fatalf("full wrap = %d components", len(wAll.Components))
	}
	if wAll.TotalBytes() < 3_000_000 { // 600Ki logic + 400Ki UI + 2Mi data
		t.Fatalf("full wrap = %d bytes, want > 3 MB", wAll.TotalBytes())
	}
	if _, err := a.WrapComponents([]string{"nonexistent"}); err == nil {
		t.Fatal("wrap of unknown component accepted")
	}
}

func TestWrapEncodeDecodeUnwrap(t *testing.T) {
	a := playerApp(t)
	st, _ := a.Component("playback-state")
	st.(*StateComponent).Set("positionMs", "777")
	a.Coordinator().Set("track", "t9")
	a.SetProfile(UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}})
	data, _ := a.Component("music-data")
	wantSum := data.(*BlobComponent).Checksum()

	w, err := a.WrapComponents(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh instance at the destination with no components at all: unwrap
	// must recreate them (code-carrying migration). Wire framing is
	// internal/state's job now and is tested there.
	b := New("player", "hostB", desc("player"))
	if err := b.Unwrap(w); err != nil {
		t.Fatal(err)
	}
	if len(b.Components()) != 4 {
		t.Fatalf("restored components = %v", b.Components())
	}
	restored, _ := b.Component("music-data")
	if restored.(*BlobComponent).Checksum() != wantSum {
		t.Fatal("data corrupted in transfer")
	}
	rst, _ := b.Component("playback-state")
	if v, _ := rst.(*StateComponent).Get("positionMs"); v != "777" {
		t.Fatalf("restored state = %q", v)
	}
	if v, _ := b.Coordinator().Get("track"); v != "t9" {
		t.Fatalf("restored coord = %q", v)
	}
	if b.Profile().Preferences["handedness"] != "left" {
		t.Fatal("profile lost")
	}
}

func TestSnapshotManagerRecordRollback(t *testing.T) {
	a := playerApp(t)
	st, _ := a.Component("playback-state")
	sc := st.(*StateComponent)
	sc.Set("positionMs", "100")
	if _, err := a.Snapshots().Record("pre-migration", time.Unix(10, 0)); err != nil {
		t.Fatal(err)
	}
	sc.Set("positionMs", "999")
	if err := a.Snapshots().Rollback("pre-migration"); err != nil {
		t.Fatal(err)
	}
	if v, _ := sc.Get("positionMs"); v != "100" {
		t.Fatalf("rollback state = %q", v)
	}
	if err := a.Snapshots().Rollback("never"); err == nil {
		t.Fatal("rollback to unknown tag accepted")
	}
	if _, ok := a.Snapshots().Latest(); !ok {
		t.Fatal("Latest missing")
	}
	if _, ok := a.Snapshots().Find("pre-migration"); !ok {
		t.Fatal("Find missing")
	}
}

func TestSnapshotHistoryCap(t *testing.T) {
	a := playerApp(t)
	a.Snapshots().SetCap(2)
	for i := 0; i < 5; i++ {
		if _, err := a.Snapshots().Record("t", time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Snapshots().Len(); got != 2 {
		t.Fatalf("history len = %d, want 2", got)
	}
	a.Snapshots().SetCap(0) // clamps to 1
	if got := a.Snapshots().Len(); got != 1 {
		t.Fatalf("after cap clamp, len = %d", got)
	}
}

func TestAdaptorPlanHandheld(t *testing.T) {
	ad := NewAdaptor()
	plan := ad.Plan(wsdl.DeviceProfile{
		Host: "pda1", ScreenWidth: 320, ScreenHeight: 240, HasAudio: false,
	}, UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}})
	if plan.ScaleX >= 0.5 || plan.ScaleY >= 0.5 {
		t.Fatalf("plan scales = %v, %v", plan.ScaleX, plan.ScaleY)
	}
	if !plan.MirrorLayout {
		t.Fatal("left-handed mirror not planned")
	}
	if !plan.MutedAudio {
		t.Fatal("audio-less device not muted")
	}
	if plan.FontScale <= plan.ScaleX {
		t.Fatal("small-screen font compensation missing")
	}
	if _, ok := ad.LastPlan(); !ok {
		t.Fatal("LastPlan missing")
	}
	if strings.Join(plan.Notes, ";") == "" {
		t.Fatal("plan carries no notes")
	}
}

func TestAdaptorApplyToUI(t *testing.T) {
	a := playerApp(t)
	a.SetProfile(UserProfile{User: "bob", Preferences: map[string]string{}})
	dev := wsdl.DeviceProfile{Host: "hostB", ScreenWidth: 512, ScreenHeight: 384, HasAudio: true}
	plan, adapted, err := a.Adaptor().Apply(a, dev)
	if err != nil {
		t.Fatal(err)
	}
	if adapted != 1 {
		t.Fatalf("adapted = %d components, want 1 (the UI)", adapted)
	}
	ui, _ := a.Component("main-ui")
	w, h := ui.(*UIComponent).Geometry()
	if w != 512 || h != 384 {
		t.Fatalf("UI geometry = %dx%d, want 512x384 (plan %+v)", w, h, plan)
	}
	if ui.(*UIComponent).GeometryString() != "512x384" {
		t.Fatal("GeometryString wrong")
	}
}

func TestAdaptorRejectsCollapse(t *testing.T) {
	ui := NewUI("u", 1024, 100, 100)
	err := ui.Adapt(Adaptation{ScaleX: 0.0001, ScaleY: 0.0001, FontScale: 1})
	if err == nil {
		t.Fatal("collapsing adaptation accepted")
	}
}

func TestAdaptorReferenceValidation(t *testing.T) {
	ad := NewAdaptor()
	if err := ad.SetReference(0, 100); err == nil {
		t.Fatal("zero reference accepted")
	}
	if err := ad.SetReference(800, 600); err != nil {
		t.Fatal(err)
	}
	plan := ad.Plan(wsdl.DeviceProfile{Host: "h", ScreenWidth: 800, ScreenHeight: 600, HasAudio: true}, UserProfile{})
	if plan.ScaleX != 1 || plan.ScaleY != 1 {
		t.Fatalf("same-geometry plan scales = %v, %v", plan.ScaleX, plan.ScaleY)
	}
}

func TestUIObserverCountsRenders(t *testing.T) {
	a := playerApp(t)
	ui, _ := a.Component("main-ui")
	a.Coordinator().Register("main-ui", ui.(*UIComponent))
	a.Coordinator().Set("track", "t1")
	a.Coordinator().Set("track", "t2")
	if got := ui.(*UIComponent).Renders(); got != 2 {
		t.Fatalf("renders = %d, want 2", got)
	}
}

func TestResourceBindings(t *testing.T) {
	a := playerApp(t)
	a.BindResource(owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20})
	rs := a.Resources()
	if len(rs) != 1 || rs[0].ID != "song1" {
		t.Fatalf("Resources = %v", rs)
	}
}

func TestSetHostUpdatesOrigin(t *testing.T) {
	a := playerApp(t)
	a.SetHost("hostB")
	if a.Host() != "hostB" {
		t.Fatalf("Host = %s", a.Host())
	}
	var origin string
	a.Coordinator().Register("o", ObserverFunc(func(ch StateChange) { origin = ch.Origin }))
	a.Coordinator().Set("k", "v")
	if origin != "player@hostB" {
		t.Fatalf("origin = %q", origin)
	}
}

// Property: wrap/unwrap round-trips arbitrary state contents.
func TestWrapRoundTripProperty(t *testing.T) {
	f := func(kv map[string]string) bool {
		a := New("x", "h1", desc("x"))
		st := NewState("s")
		if err := a.AddComponent(st); err != nil {
			return false
		}
		for k, v := range kv {
			st.Set(k, v)
		}
		w, err := a.WrapComponents(nil)
		if err != nil {
			return false
		}
		b := New("x", "h2", desc("x"))
		if err := b.Unwrap(w); err != nil {
			return false
		}
		rst, ok := b.Component("s")
		if !ok {
			return false
		}
		for k, v := range kv {
			got, ok := rst.(*StateComponent).Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// plainComp is a Component without ChangeNotifier — the always-dirty
// fallback case.
type plainComp struct{ data []byte }

func (p *plainComp) Name() string              { return "plain" }
func (p *plainComp) Kind() ComponentKind       { return KindData }
func (p *plainComp) SizeBytes() int64          { return int64(len(p.data)) }
func (p *plainComp) Snapshot() ([]byte, error) { return append([]byte(nil), p.data...), nil }
func (p *plainComp) Restore(b []byte) error    { p.data = append([]byte(nil), b...); return nil }

func TestDirtyCountersEnumerateChanges(t *testing.T) {
	a := New("x", "h1", desc("x"))
	st := NewState("st")
	blob := NewBlob("blob", KindData, []byte("v1"))
	if err := a.AddComponent(st); err != nil {
		t.Fatal(err)
	}
	if err := a.AddComponent(blob); err != nil {
		t.Fatal(err)
	}
	if !a.FullyTracked() {
		t.Fatal("state+blob app reported untracked")
	}
	base := a.ChangeSeq()
	if got := a.ChangedSince(base); len(got) != 0 {
		t.Fatalf("nothing changed yet ChangedSince = %v", got)
	}

	// Component mutations are attributed to the right component.
	st.Set("k", "v")
	if got := a.ChangedSince(base); len(got) != 1 || got[0] != "st" {
		t.Fatalf("after st.Set ChangedSince = %v, want [st]", got)
	}
	blob.SetContent([]byte("v2"))
	if got := a.ChangedSince(base); len(got) != 2 {
		t.Fatalf("after SetContent ChangedSince = %v, want [st blob]", got)
	}
	if a.ChangeSeq() == base {
		t.Fatal("mutations did not advance ChangeSeq")
	}

	// Coordinator and profile mutations advance the counter without
	// naming a component (they always ride along whole).
	mid := a.ChangeSeq()
	a.Coordinator().Set("track", "t1")
	if a.ChangeSeq() == mid {
		t.Fatal("coordinator mutation did not advance ChangeSeq")
	}
	if got := a.ChangedSince(mid); len(got) != 0 {
		t.Fatalf("coordinator change attributed to a component: %v", got)
	}
	mid = a.ChangeSeq()
	a.SetProfile(UserProfile{User: "alice"})
	if a.ChangeSeq() == mid {
		t.Fatal("profile mutation did not advance ChangeSeq")
	}

	// Restore (unwrap path) marks the restored component dirty.
	mid = a.ChangeSeq()
	if err := blob.Restore([]byte("v3")); err != nil {
		t.Fatal(err)
	}
	if got := a.ChangedSince(mid); len(got) != 1 || got[0] != "blob" {
		t.Fatalf("after Restore ChangedSince = %v, want [blob]", got)
	}
}

func TestUntrackedComponentsAreAlwaysDirty(t *testing.T) {
	a := New("x", "h1", desc("x"))
	if err := a.AddComponent(NewState("st")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddComponent(&plainComp{data: []byte("p")}); err != nil {
		t.Fatal(err)
	}
	if a.FullyTracked() {
		t.Fatal("app with a plain component reported fully tracked")
	}
	// The untracked component is in every ChangedSince answer — it
	// cannot prove itself clean.
	seq := a.ChangeSeq()
	if got := a.ChangedSince(seq); len(got) != 1 || got[0] != "plain" {
		t.Fatalf("ChangedSince = %v, want [plain]", got)
	}
}
