package migrate

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/media"
	"mdagent/internal/netsim"
	"mdagent/internal/obs"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/space"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

const songSize = 2 << 20

type rig struct {
	clk  *vclock.Virtual
	net  *netsim.Network
	fab  *transport.LocalFabric
	reg  *cluster.Center
	dir  *space.Directory
	engA *Engine
	engB *Engine
	libA *media.Library
}

func playerDesc() wsdl.Description {
	return wsdl.Description{
		Name: "player",
		Services: []wsdl.Service{{
			Name:  "playback",
			Ports: []wsdl.Port{{Name: "ctl", Operations: []wsdl.Operation{{Name: "play"}}}},
		}},
		Requires: wsdl.Requirements{NeedsAudio: true},
	}
}

// newCenter starts a registry center with no peers — the standalone
// registry — on its own fabric.
func newCenter(t testing.TB) *cluster.Center {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	ep, err := fab.Attach("registry-center", "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.NewCenter("", nil, ep, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newRig assembles the Fig. 8 evaluation scenario: player running on
// hostA with logic+UI+data+state; hostB has the UI installed (factory +
// registry record) but no data or logic; the music resource is
// untransferable data served from hostA's media library.
func newRig(t *testing.T, fileSize int64) *rig {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(11))
	if _, err := net.AddHost("hostA", "lab-space", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("hostB", "lab-space", netsim.PentiumM_1600(), 3*time.Second); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(net)
	t.Cleanup(func() { fab.Close() })

	reg := newCenter(t)
	dir := space.NewDirectory()
	if err := dir.AddSpace("lab-space"); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"hostA", "hostB"} {
		if err := dir.AddHost(h, "lab-space"); err != nil {
			t.Fatal(err)
		}
	}

	epA, err := fab.Attach(EndpointName("hostA"), "hostA")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := fab.Attach(EndpointName("hostB"), "hostB")
	if err != nil {
		t.Fatal(err)
	}
	devB := wsdl.DeviceProfile{
		Host: "hostB", ScreenWidth: 800, ScreenHeight: 600, MemoryMB: 512, HasAudio: true, HasDisplay: true,
	}
	engA := NewEngine("hostA", wsdl.DeviceProfile{}, epA, net, dir, reg, DefaultCosts())
	engB := NewEngine("hostB", devB, epB, net, dir, reg, DefaultCosts())

	// Media library on hostA serving the song.
	libA := media.NewLibrary("hostA")
	libA.Add(media.GenerateFile("song1", fileSize, 3))
	mediaEpA, err := fab.Attach(MediaEndpointName("hostA"), "hostA")
	if err != nil {
		t.Fatal(err)
	}
	media.ServeLibrary(libA, mediaEpA)

	// Destination installation: UI only (paper's measured assumption).
	engB.InstallFactory("player", func(host string) *app.Application {
		inst := app.New("player", host, playerDesc())
		if err := inst.AddComponent(app.NewUI("main-ui", 400<<10, 1024, 768)); err != nil {
			panic(err)
		}
		return inst
	})
	ctx := context.Background()
	if err := reg.RegisterApp(ctx, registry.AppRecord{
		Name: "player", Host: "hostB", Space: "lab-space",
		Description: playerDesc(), Components: []string{"main-ui"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterDevice(ctx, devB); err != nil {
		t.Fatal(err)
	}
	// The music resource: untransferable data on hostA.
	if err := reg.RegisterResource(ctx, owl.Resource{
		ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA",
		SizeBytes: fileSize, Transferable: false, Substitutable: false,
	}); err != nil {
		t.Fatal(err)
	}

	return &rig{clk: clk, net: net, fab: fab, reg: reg, dir: dir, engA: engA, engB: engB, libA: libA}
}

// startPlayer builds and runs the player instance on hostA.
func (r *rig) startPlayer(t *testing.T, fileSize int64) *app.Application {
	t.Helper()
	inst := app.New("player", "hostA", playerDesc())
	song, _ := r.libA.Get("song1")
	for _, c := range []app.Component{
		app.NewSizedBlob("codec-logic", app.KindLogic, 600<<10),
		app.NewUI("main-ui", 400<<10, 1024, 768),
		app.NewBlob("song1", app.KindData, song.Data),
		app.NewState("playback-state"),
	} {
		if err := inst.AddComponent(c); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := inst.Component("playback-state")
	st.(*app.StateComponent).Set("positionMs", "93500")
	inst.Coordinator().Set("track", "song1")
	inst.SetProfile(app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}})
	inst.BindResource(owl.Resource{
		ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA",
		SizeBytes: fileSize, Transferable: false,
	})
	if err := r.engA.Run(inst); err != nil {
		t.Fatal(err)
	}
	return inst
}

func ctxT(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestFollowMeAdaptiveBinding(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)

	rep, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §5: dest has UI => MA wraps states + logic, music stays remote.
	carried := strings.Join(rep.Carried, ",")
	if !strings.Contains(carried, "playback-state") || !strings.Contains(carried, "codec-logic") {
		t.Fatalf("carried = %v", rep.Carried)
	}
	if strings.Contains(carried, "main-ui") || strings.Contains(carried, "song1") {
		t.Fatalf("adaptive binding carried installed/remote parts: %v", rep.Carried)
	}
	if rep.BytesMoved > 1<<20 {
		t.Fatalf("adaptive wrap = %d bytes, want < 1 MiB (no music data)", rep.BytesMoved)
	}
	// Remote URL rebinding happened.
	foundRemote := false
	for _, p := range rep.Rebindings {
		if p.Action == owl.RebindRemote {
			foundRemote = true
		}
	}
	if !foundRemote {
		t.Fatalf("rebindings = %+v, want a remote-url plan", rep.Rebindings)
	}
	// Cut-paste semantics: gone from A, running on B.
	if _, ok := r.engA.App("player"); ok {
		t.Fatal("app still on source")
	}
	inst, ok := r.engB.App("player")
	if !ok {
		t.Fatal("app missing at destination")
	}
	if inst.State() != app.Running || inst.Host() != "hostB" {
		t.Fatalf("dest instance state=%v host=%s", inst.State(), inst.Host())
	}
	// State and coordinator survived.
	st, _ := inst.Component("playback-state")
	if v, _ := st.(*app.StateComponent).Get("positionMs"); v != "93500" {
		t.Fatalf("position = %q", v)
	}
	if v, _ := inst.Coordinator().Get("track"); v != "song1" {
		t.Fatalf("track = %q", v)
	}
	// Adaptation ran: 1024x768 UI scaled to the 800x600 device, mirrored
	// for the left-handed user.
	ui, _ := inst.Component("main-ui")
	w, h := ui.(*app.UIComponent).Geometry()
	if w != 800 || h != 600 {
		t.Fatalf("UI geometry = %dx%d, want 800x600", w, h)
	}
	if !ui.(*app.UIComponent).Mirrored() {
		t.Fatal("left-handed mirror not applied")
	}
	// Remote binding recorded a URL.
	urlBound := false
	for _, res := range inst.Resources() {
		if strings.HasPrefix(res.Attrs["url"], "mdagent://hostA/media/") {
			urlBound = true
		}
	}
	if !urlBound {
		t.Fatalf("resources = %+v, want mdagent:// URL binding", inst.Resources())
	}
	// Phase timings: all positive, adaptive total near the paper's ~1s.
	if rep.Suspend <= 0 || rep.Migrate <= 0 || rep.Resume <= 0 {
		t.Fatalf("phases = %v/%v/%v", rep.Suspend, rep.Migrate, rep.Resume)
	}
	if total := rep.Total(); total < 500*time.Millisecond || total > 3*time.Second {
		t.Fatalf("adaptive total = %v, want ~1s scale", total)
	}
}

func TestFollowMeStaticBindingCarriesEverything(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)

	rep, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Carried) != 4 {
		t.Fatalf("static carried = %v, want all 4 components", rep.Carried)
	}
	if rep.BytesMoved < 3_000_000 {
		t.Fatalf("static wrap = %d bytes, want > 3 MB", rep.BytesMoved)
	}
	inst, ok := r.engB.App("player")
	if !ok {
		t.Fatal("app missing at destination")
	}
	// Data integrity across the move.
	data, ok := inst.Component("song1")
	if !ok {
		t.Fatal("music data not carried")
	}
	song, _ := r.libA.Get("song1")
	snap, err := data.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(snap)) != song.Size() {
		t.Fatalf("carried data = %d bytes, want %d", len(snap), song.Size())
	}
}

func TestAdaptiveBeatsStatic(t *testing.T) {
	// The Fig. 10 comparison at one size: adaptive total must win by a
	// wide margin when the data dominates.
	sizes := []int64{2 << 20, 7 << 20}
	var ratios []float64
	for _, size := range sizes {
		ra := newRig(t, size)
		ra.startPlayer(t, size)
		adaptive, err := ra.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
		if err != nil {
			t.Fatal(err)
		}
		rs := newRig(t, size)
		rs.startPlayer(t, size)
		static, err := rs.engA.FollowMe(ctxT(t), "player", "hostB", BindingStatic, owl.MatchSemantic)
		if err != nil {
			t.Fatal(err)
		}
		if static.Total() <= 2*adaptive.Total() {
			t.Fatalf("size %d: static %v not ≫ adaptive %v", size, static.Total(), adaptive.Total())
		}
		ratios = append(ratios, float64(static.Total())/float64(adaptive.Total()))
	}
	if ratios[1] <= ratios[0] {
		t.Fatalf("static/adaptive gap did not widen with size: %v", ratios)
	}
}

func TestAdaptiveResumeGrowsGently(t *testing.T) {
	// Fig. 8's finding: "as the file size increases, only resumption
	// takes more time, suspension and migration are not affected much.
	// ... less than 200 milliseconds when the file size increases from
	// 2.0MB to 7.5MB."
	small := newRig(t, 2<<20)
	small.startPlayer(t, 2<<20)
	repS, err := small.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	big := newRig(t, 7864320) // 7.5 MB
	big.startPlayer(t, 7864320)
	repB, err := big.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	growth := repB.Resume - repS.Resume
	if growth <= 0 {
		t.Fatalf("resume did not grow: %v -> %v", repS.Resume, repB.Resume)
	}
	if growth > 300*time.Millisecond {
		t.Fatalf("resume growth = %v, want < ~200-300ms (paper)", growth)
	}
	// Suspend and migrate essentially flat.
	if d := (repB.Suspend - repS.Suspend).Abs(); d > 60*time.Millisecond {
		t.Fatalf("suspend drift = %v", d)
	}
	if d := (repB.Migrate - repS.Migrate).Abs(); d > 120*time.Millisecond {
		t.Fatalf("migrate drift = %v", d)
	}
}

func TestFollowMeFailureRollsBack(t *testing.T) {
	r := newRig(t, songSize)
	inst := r.startPlayer(t, songSize)
	// hostC exists on no fabric endpoint: checkin must fail.
	if _, err := r.net.AddHost("hostC", "lab-space", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.AddHost("hostC", "lab-space"); err != nil {
		t.Fatal(err)
	}
	_, err := r.engA.FollowMe(ctxT(t), "player", "hostC", BindingAdaptive, owl.MatchSemantic)
	if err == nil {
		t.Fatal("migration to dead host succeeded")
	}
	// App survived, resumed, still at A.
	got, ok := r.engA.App("player")
	if !ok || got != inst {
		t.Fatal("app lost after failed migration")
	}
	if inst.State() != app.Running {
		t.Fatalf("state = %v, want running after rollback", inst.State())
	}
	st, _ := inst.Component("playback-state")
	if v, _ := st.(*app.StateComponent).Get("positionMs"); v != "93500" {
		t.Fatalf("state corrupted by rollback: %q", v)
	}
}

func TestFollowMeValidation(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	ctx := ctxT(t)
	if _, err := r.engA.FollowMe(ctx, "ghost", "hostB", BindingAdaptive, owl.MatchSemantic); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := r.engA.FollowMe(ctx, "player", "hostA", BindingAdaptive, owl.MatchSemantic); err == nil {
		t.Fatal("self-migration accepted")
	}
}

func TestInterSpaceRequiresGateway(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	ctx := ctxT(t)
	// hostD lives in a different space with no gateways.
	if _, err := r.net.AddHost("hostD", "meeting-space", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.AddSpace("meeting-space"); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.AddHost("hostD", "meeting-space"); err != nil {
		t.Fatal(err)
	}
	_, err := r.engA.FollowMe(ctx, "player", "hostD", BindingAdaptive, owl.MatchSemantic)
	if err == nil || !strings.Contains(err.Error(), "gateway") {
		t.Fatalf("err = %v, want gateway requirement", err)
	}
	// Install gateways (directory + netsim) and an engine at hostD.
	if _, err := r.net.AddGateway("gwLab", "lab-space", netsim.Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.net.AddGateway("gwMeet", "meeting-space", netsim.Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.SetGateway("lab-space", "gwLab"); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.SetGateway("meeting-space", "gwMeet"); err != nil {
		t.Fatal(err)
	}
	epD, err := r.fab.Attach(EndpointName("hostD"), "hostD")
	if err != nil {
		t.Fatal(err)
	}
	engD := NewEngine("hostD", wsdl.DeviceProfile{}, epD, r.net, r.dir, r.reg, DefaultCosts())
	_ = engD
	rep, err := r.engA.FollowMe(ctx, "player", "hostD", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InterSpace {
		t.Fatal("inter-space flag not set")
	}
	if _, ok := engD.App("player"); !ok {
		t.Fatal("app missing at inter-space destination")
	}
}

func TestFig7SkewCancellation(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	// hostB's clock is 3 s ahead of hostA's (set in newRig).
	rt, err := MeasureRoundTrip(ctxT(t), r.engA, r.engB, "player", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	trueRTT := rt.Out.Total() + rt.Back.Total()
	if diff := (rt.SkewCanceled() - trueRTT).Abs(); diff > time.Millisecond {
		t.Fatalf("skew-canceled RTT %v differs from true %v by %v", rt.SkewCanceled(), trueRTT, diff)
	}
	// The naive cross-clock reading is contaminated by the 3 s offset.
	naiveErr := (rt.NaiveOneWay() - rt.Out.Total()).Abs()
	if naiveErr < 2900*time.Millisecond {
		t.Fatalf("naive reading error = %v, want ~3s contamination", naiveErr)
	}
	// Round trip ends back at A.
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("app not back at source")
	}
}

// TestSimulatedTraceIsOnTheVirtualClock: on a simulated network every
// migration span reads the network's virtual clock. The destination's
// spans travel back in the check-in reply, and the simulated fabric
// charges the reply's length; a span measured on the wall clock changed
// that length from run to run with how long the rebind took, and with it
// the Fig. 7 round trip. Two identical rigs record identical spans.
func TestSimulatedTraceIsOnTheVirtualClock(t *testing.T) {
	var runs [2][]obs.Span
	for i := range runs {
		r := newRig(t, songSize)
		r.startPlayer(t, songSize)
		begin := r.clk.Now()
		if _, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic); err != nil {
			t.Fatal(err)
		}
		end := r.clk.Now()
		tr, ok := obs.Traces.Latest("player")
		if !ok || !tr.Complete() {
			t.Fatalf("run %d: no complete trace: %+v", i, tr)
		}
		for _, sp := range tr.Spans {
			if sp.Start.Before(begin) || sp.Start.Add(sp.Dur).After(end) {
				t.Fatalf("run %d: %s span [%v, +%v] lies outside the migration's virtual [%v, %v]",
					i, sp.Phase, sp.Start, sp.Dur, begin, end)
			}
			sp.Trace = ""
			runs[i] = append(runs[i], sp)
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("two identical simulated migrations traced differently:\n%+v\n%+v", runs[0], runs[1])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloneDispatchWithSyncLink(t *testing.T) {
	r := newRig(t, songSize)
	master := r.startPlayer(t, songSize)

	rep, err := r.engA.CloneDispatch(ctxT(t), "player", "hostB", "player-room2", owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SyncLink || rep.RestoredApp != "player-room2" {
		t.Fatalf("report = %+v", rep)
	}
	// Copy-paste: master still running at A.
	if master.State() != app.Running {
		t.Fatalf("master state = %v", master.State())
	}
	clone, ok := r.engB.App("player-room2")
	if !ok {
		t.Fatal("clone missing at destination")
	}
	// Speaker's control propagates to the overflow room.
	master.Coordinator().Set("slide", "7")
	waitFor(t, "slide sync to clone", func() bool {
		v, _ := clone.Coordinator().Get("slide")
		return v == "7"
	})
	// And the clone can drive the master too (bidirectional link).
	clone.Coordinator().Set("annotation", "Q&A")
	waitFor(t, "annotation sync to master", func() bool {
		v, _ := master.Coordinator().Get("annotation")
		return v == "Q&A"
	})
}

func TestCloneValidation(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	ctx := ctxT(t)
	if _, err := r.engA.CloneDispatch(ctx, "ghost", "hostB", "x", owl.MatchSemantic); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := r.engA.CloneDispatch(ctx, "player", "hostA", "player", owl.MatchSemantic); err == nil {
		t.Fatal("identity clone accepted")
	}
	if _, err := r.engA.CloneDispatch(ctx, "player", "hostB", "", owl.MatchSemantic); err == nil {
		t.Fatal("empty clone name accepted")
	}
}

func TestRunDuplicateRejected(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	other := app.New("player", "hostA", playerDesc())
	if err := r.engA.Run(other); err == nil {
		t.Fatal("duplicate Run accepted")
	}
}

func TestModeAndBindingStrings(t *testing.T) {
	if FollowMe.String() != "follow-me" || CloneDispatch.String() != "clone-dispatch" || Mode(0).String() != "invalid" {
		t.Fatal("mode strings wrong")
	}
	if BindingAdaptive.String() != "adaptive" || BindingStatic.String() != "static" || BindingMode(0).String() != "invalid" {
		t.Fatal("binding strings wrong")
	}
}

// warmRig builds a two-host rig where hostA runs the full player and the
// first migration carries everything (static binding), priming both
// engines' warm-handoff base caches.
func warmRig(t *testing.T) *rig {
	t.Helper()
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	return r
}

func mutatePlayback(t *testing.T, inst *app.Application, pos string) {
	t.Helper()
	st, ok := inst.Component("playback-state")
	if !ok {
		t.Fatal("playback-state missing")
	}
	st.(*app.StateComponent).Set("positionMs", pos)
	inst.Coordinator().Set("positionMs", pos)
}

func playbackPos(t *testing.T, inst *app.Application) string {
	t.Helper()
	st, ok := inst.Component("playback-state")
	if !ok {
		t.Fatal("playback-state missing")
	}
	v, _ := st.(*app.StateComponent).Get("positionMs")
	return v
}

func TestFollowMeWarmHandoffShipsDelta(t *testing.T) {
	r := warmRig(t)
	ctx := ctxT(t)

	// Leg 1 — cold: everything moves, both sides cache the base.
	rep1, err := r.engA.FollowMe(ctx, "player", "hostB", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Delta {
		t.Fatal("cold first migration reported as warm")
	}

	// The user walks back after a small state change: only that change
	// should cross the wire.
	instB, ok := r.engB.App("player")
	if !ok {
		t.Fatal("player not on hostB after leg 1")
	}
	mutatePlayback(t, instB, "120000")

	rep2, err := r.engB.FollowMe(ctx, "player", "hostA", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Delta {
		t.Fatal("return migration did not go warm")
	}
	if rep2.BytesMoved*5 > rep1.BytesMoved {
		t.Fatalf("warm handoff moved %d bytes, want far less than the cold %d",
			rep2.BytesMoved, rep1.BytesMoved)
	}
	instA, ok := r.engA.App("player")
	if !ok {
		t.Fatal("player not back on hostA")
	}
	if got := playbackPos(t, instA); got != "120000" {
		t.Fatalf("restored position = %q, want 120000", got)
	}
	if v, _ := instA.Coordinator().Get("positionMs"); v != "120000" {
		t.Fatalf("restored coord position = %q, want 120000", v)
	}
	// The multi-megabyte song survived the delta reassembly.
	song, ok := instA.Component("song1")
	if !ok || song.SizeBytes() != songSize {
		t.Fatalf("song lost or truncated after delta reassembly: %v", ok)
	}

	// Leg 3 — ping-pong continues warm from the reassembled side.
	mutatePlayback(t, instA, "180000")
	rep3, err := r.engA.FollowMe(ctx, "player", "hostB", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Delta {
		t.Fatal("third leg did not go warm")
	}
	instB2, _ := r.engB.App("player")
	if got := playbackPos(t, instB2); got != "180000" {
		t.Fatalf("third-leg position = %q, want 180000", got)
	}
}

func TestFollowMeWarmFallsBackWhenBaseLost(t *testing.T) {
	r := warmRig(t)
	ctx := ctxT(t)
	if _, err := r.engA.FollowMe(ctx, "player", "hostB", BindingStatic, owl.MatchSemantic); err != nil {
		t.Fatal(err)
	}
	instB, _ := r.engB.App("player")
	mutatePlayback(t, instB, "240000")

	// hostA forgets the base (restart): the delta attempt is refused
	// in-band and the same migration retries with a full wrap.
	r.engA.mu.Lock()
	delete(r.engA.bases, "player")
	r.engA.mu.Unlock()

	rep, err := r.engB.FollowMe(ctx, "player", "hostA", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta {
		t.Fatal("migration reported warm after the base was lost")
	}
	instA, ok := r.engA.App("player")
	if !ok {
		t.Fatal("player not on hostA after fallback")
	}
	if got := playbackPos(t, instA); got != "240000" {
		t.Fatalf("fallback position = %q, want 240000", got)
	}
}

// An application that returns to the host owning its data binds to that
// data directly: it must not open a media stream from the host to itself
// and keep a url pointing at where it already is.
func TestFollowMeBackToDataOwnerBindsLocally(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	ctx := ctxT(t)

	if _, err := r.engA.FollowMe(ctx, "player", "hostB", BindingAdaptive, owl.MatchSemantic); err != nil {
		t.Fatal(err)
	}

	// Return leg: any media request hostA receives now is its own.
	mediaA, ok := r.fab.Lookup(MediaEndpointName("hostA"))
	if !ok {
		t.Fatal("no media endpoint on hostA")
	}
	var selfServed atomic.Int32
	mediaA.Handle(media.MsgRead, func(m transport.Message) ([]byte, error) {
		selfServed.Add(1)
		return nil, fmt.Errorf("%s from %s: hostA asked itself for its own data", m.Type, m.From)
	})
	rep, err := r.engB.FollowMe(ctx, "player", "hostA", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if n := selfServed.Load(); n != 0 {
		t.Fatalf("return leg issued %d media requests", n)
	}
	if len(rep.Rebindings) != 1 || rep.Rebindings[0].Action != owl.RebindUseLocal || rep.Rebindings[0].Target.ID != "song1" {
		t.Fatalf("return rebindings = %+v, want use-local song1", rep.Rebindings)
	}
	instA, ok := r.engA.App("player")
	if !ok {
		t.Fatal("player not back on hostA")
	}
	res := instA.Resources()
	if len(res) != 1 || res[0].ID != "song1" || res[0].Host != "hostA" {
		t.Fatalf("resources on hostA = %+v", res)
	}
	if url, has := res[0].Attrs["url"]; has {
		t.Fatalf("resource on its own host still bound by url %q", url)
	}

	// Next outward leg: the data stays behind again.
	media.ServeLibrary(r.libA, mediaA)
	rep, err = r.engA.FollowMe(ctx, "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rebindings) != 1 || rep.Rebindings[0].Action != owl.RebindRemote {
		t.Fatalf("outward rebindings = %+v, want remote-url", rep.Rebindings)
	}
	instB, _ := r.engB.App("player")
	if res := instB.Resources(); len(res) != 1 || !strings.HasPrefix(res[0].Attrs["url"], "mdagent://hostA/media/") {
		t.Fatalf("resources on hostB = %+v, want a url to hostA", res)
	}
}
