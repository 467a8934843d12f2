package agents

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/platform"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/space"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// agentRig wires the full stack below the core facade: netsim, fabric,
// registry, space directory, migration engines, platform containers, a
// context kernel, and one AA/MA pair on hostA.
type agentRig struct {
	clk    *vclock.Virtual
	net    *netsim.Network
	kernel *ctxkernel.Kernel
	engA   *migrate.Engine
	engB   *migrate.Engine
	aaBody *AutonomousBody
	inst   *app.Application
	contA  *platform.Container
}

func playerDesc() wsdl.Description {
	return wsdl.Description{
		Name: "player",
		Services: []wsdl.Service{{
			Name:  "playback",
			Ports: []wsdl.Port{{Name: "ctl", Operations: []wsdl.Operation{{Name: "play"}}}},
		}},
	}
}

func newAgentRig(t *testing.T) *agentRig {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(23))
	if _, err := net.AddHost("hostA", "lab-space", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("hostB", "lab-space", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(net)
	t.Cleanup(func() { fab.Close() })

	reg, err := registry.New(store.OpenMemory())
	if err != nil {
		t.Fatal(err)
	}
	dir := space.NewDirectory()
	if err := dir.AddSpace("lab-space"); err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"hostA", "hostB"} {
		if err := dir.AddHost(h, "lab-space"); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.AssignRoom("office821", "hostA"); err != nil {
		t.Fatal(err)
	}
	if err := dir.AssignRoom("office822", "hostB"); err != nil {
		t.Fatal(err)
	}

	epA, err := fab.Attach(migrate.EndpointName("hostA"), "hostA")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := fab.Attach(migrate.EndpointName("hostB"), "hostB")
	if err != nil {
		t.Fatal(err)
	}
	engA := migrate.NewEngine("hostA", epA, net, dir, migrate.Direct{R: reg}, migrate.DefaultCosts())
	engB := migrate.NewEngine("hostB", epB, net, dir, migrate.Direct{R: reg}, migrate.DefaultCosts())

	libA := media.NewLibrary("hostA")
	libA.Add(media.GenerateFile("song1", 2<<20, 3))
	mediaEpA, err := fab.Attach(migrate.MediaEndpointName("hostA"), "hostA")
	if err != nil {
		t.Fatal(err)
	}
	media.ServeLibrary(libA, mediaEpA)

	engB.InstallFactory("player", func(host string) *app.Application {
		inst := app.New("player", host, playerDesc())
		if err := inst.AddComponent(app.NewUI("main-ui", 400<<10, 1024, 768)); err != nil {
			panic(err)
		}
		return inst
	})
	if err := reg.RegisterApp(registry.AppRecord{
		Name: "player", Host: "hostB", Description: playerDesc(), Components: []string{"main-ui"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterResource(owl.Resource{
		ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20,
	}); err != nil {
		t.Fatal(err)
	}

	// Running player on hostA.
	inst := app.New("player", "hostA", playerDesc())
	song, _ := libA.Get("song1")
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
	inst.BindResource(owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20})
	if err := engA.Run(inst); err != nil {
		t.Fatal(err)
	}

	// Platform: one container per host; MA and AA live on hostA.
	plat := platform.NewPlatform(fab)
	contA, err := plat.NewContainer("container@hostA", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plat.NewContainer("container@hostB", "hostB"); err != nil {
		t.Fatal(err)
	}
	kernel := ctxkernel.NewKernel()
	if _, err := StartMobileAgent(contA, "ma@hostA", engA); err != nil {
		t.Fatal(err)
	}
	aaBody := &AutonomousBody{
		Policy: DefaultPolicy("alice", "player"),
		Kernel: kernel, Dir: dir, Net: net, Engine: engA, MAName: "ma@hostA",
	}
	if _, err := StartAutonomousAgent(contA, "aa@alice", aaBody); err != nil {
		t.Fatal(err)
	}

	return &agentRig{clk: clk, net: net, kernel: kernel, engA: engA, engB: engB, aaBody: aaBody, inst: inst, contA: contA}
}

func userEvent(topic, user, room string) ctxkernel.Event {
	return ctxkernel.Event{
		Topic: topic, At: time.Unix(0, 0), Source: "test",
		Attrs: map[string]string{ctxkernel.AttrUser: user, ctxkernel.AttrRoom: room},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAAOrdersFollowMeOnUserMove(t *testing.T) {
	r := newAgentRig(t)
	var mu sync.Mutex
	var migrated []string
	r.kernel.Subscribe(TopicMigrated, func(ev ctxkernel.Event) {
		mu.Lock()
		migrated = append(migrated, ev.Attr("dest"))
		mu.Unlock()
	})

	// Alice leaves office821 (hostA): the AA suspends the player.
	r.kernel.Publish(userEvent(ctxkernel.TopicUserLeft, "alice", "office821"))
	waitFor(t, "suspend on exit", func() bool { return r.inst.State() == app.Suspended })

	// Alice enters office822 (hostB): the AA orders the MA to migrate.
	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "alice", "office822"))
	waitFor(t, "app at hostB", func() bool {
		_, ok := r.engB.App("player")
		return ok
	})
	inst, _ := r.engB.App("player")
	waitFor(t, "app running at hostB", func() bool { return inst.State() == app.Running })
	if _, still := r.engA.App("player"); still {
		t.Fatal("app still on hostA after follow-me")
	}
	waitFor(t, "migrated event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(migrated) == 1
	})
	mu.Lock()
	defer mu.Unlock()
	if migrated[0] != "hostB" {
		t.Fatalf("migrated to %q", migrated[0])
	}
}

func TestAAIgnoresOtherUsers(t *testing.T) {
	r := newAgentRig(t)
	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "mallory", "office822"))
	time.Sleep(50 * time.Millisecond)
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("app moved for the wrong user")
	}
}

func TestAASameHostRoomResumesWithoutMove(t *testing.T) {
	r := newAgentRig(t)
	// Suspend via exit, then enter another room served by the SAME host.
	if err := r.aaBody.Dir.AssignRoom("office821b", "hostA"); err != nil {
		t.Fatal(err)
	}
	r.kernel.Publish(userEvent(ctxkernel.TopicUserLeft, "alice", "office821"))
	waitFor(t, "suspended", func() bool { return r.inst.State() == app.Suspended })
	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "alice", "office821b"))
	waitFor(t, "resumed in place", func() bool { return r.inst.State() == app.Running })
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("app left hostA for a same-host room change")
	}
}

func TestAARespectsRTTThreshold(t *testing.T) {
	r := newAgentRig(t)
	// Degrade the link far beyond the 1000 ms rule threshold.
	r.net.SetLink("hostA", "hostB", netsim.LinkProfile{BandwidthMbps: 0.001, Latency: 2 * time.Second})
	var mu sync.Mutex
	var failures []string
	r.kernel.Subscribe(TopicMigrateFailed, func(ev ctxkernel.Event) {
		mu.Lock()
		failures = append(failures, ev.Attr("reason"))
		mu.Unlock()
	})
	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "alice", "office822"))
	waitFor(t, "rule-blocked decision", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failures) == 1
	})
	mu.Lock()
	reason := failures[0]
	mu.Unlock()
	if !strings.Contains(reason, "rule did not fire") {
		t.Fatalf("failure reason = %q", reason)
	}
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("app migrated despite bad network")
	}
}

func TestAAUnknownRoomIgnored(t *testing.T) {
	r := newAgentRig(t)
	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "alice", "atlantis"))
	time.Sleep(50 * time.Millisecond)
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("app moved to a room with no serving host")
	}
}

func TestMAExecutesCloneOrderOverACL(t *testing.T) {
	r := newAgentRig(t)
	// A scratch requester agent sends the MA a clone order and awaits the
	// FIPA reply — the full AA->MA message-passing path.
	requester, err := r.contA.CreateAgent("requester", nil)
	if err != nil {
		t.Fatal(err)
	}
	order := MoveOrder{
		App: "player", DestHost: "hostB", Mode: migrate.CloneDispatch,
		CloneName: "player-clone", Match: owl.MatchSemantic,
	}
	content, err := transport.Encode(order)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := requester.RequestReply(t.Context(), platform.ACLMessage{
		Performative: platform.Request, Receiver: "ma@hostA",
		Ontology: MobilityOntology, Content: content,
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != platform.Inform {
		t.Fatalf("reply = %s", reply.Performative)
	}
	var res MoveResult
	if err := transport.Decode(reply.Content, &res); err != nil {
		t.Fatal(err)
	}
	if res.Err != "" || res.Report.RestoredApp != "player-clone" {
		t.Fatalf("result = %+v", res)
	}
	if _, ok := r.engB.App("player-clone"); !ok {
		t.Fatal("clone missing")
	}
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("master gone after clone")
	}
}

func TestMARejectsGarbageOrder(t *testing.T) {
	r := newAgentRig(t)
	requester, err := r.contA.CreateAgent("requester2", nil)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := requester.RequestReply(t.Context(), platform.ACLMessage{
		Performative: platform.Request, Receiver: "ma@hostA",
		Ontology: MobilityOntology, Content: []byte("not gob"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Performative != platform.Failure {
		t.Fatalf("reply = %s, want failure", reply.Performative)
	}
}

// TestAAReportsUndecodableReplyAsFailure points the AA at a stand-in
// mobility agent that answers Inform with content that does not decode:
// the AA must report one failed move, not a migration with zero timings.
func TestAAReportsUndecodableReplyAsFailure(t *testing.T) {
	r := newAgentRig(t)
	standIn, err := r.contA.CreateAgent("stand-in-ma", nil)
	if err != nil {
		t.Fatal(err)
	}
	standIn.AddBehaviour(platform.MessageHandler(platform.MatchOntology(MobilityOntology), func(a *platform.Agent, msg platform.ACLMessage) {
		_ = a.Send(msg.Reply(platform.Inform, []byte("not gob")))
	}))
	r.aaBody.MAName = "stand-in-ma"

	var mu sync.Mutex
	var migrated, failed []string
	r.kernel.Subscribe(TopicMigrated, func(ev ctxkernel.Event) {
		mu.Lock()
		migrated = append(migrated, ev.Attr("dest"))
		mu.Unlock()
	})
	r.kernel.Subscribe(TopicMigrateFailed, func(ev ctxkernel.Event) {
		mu.Lock()
		failed = append(failed, ev.Attr("dest"))
		mu.Unlock()
	})

	r.kernel.Publish(userEvent(ctxkernel.TopicUserEntered, "alice", "office822"))
	waitFor(t, "migrate-failed event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(failed) > 0 || len(migrated) > 0
	})
	time.Sleep(20 * time.Millisecond) // let a wrongly published second event land
	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 1 || len(migrated) != 0 {
		t.Fatalf("failed = %v, migrated = %v; want one failure to hostB and no migration", failed, migrated)
	}
	if failed[0] != "hostB" {
		t.Fatalf("failure dest = %q, want hostB", failed[0])
	}
}

func TestMoveOrderRoundTripsThroughACL(t *testing.T) {
	order := MoveOrder{App: "x", DestHost: "h", Mode: migrate.FollowMe, Binding: migrate.BindingAdaptive, Match: owl.MatchSemantic, Reason: "r"}
	raw, err := transport.Encode(order)
	if err != nil {
		t.Fatal(err)
	}
	var got MoveOrder
	if err := transport.Decode(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got != order {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy("alice", "player")
	if p.User != "alice" || p.App != "player" || p.MaxRTTMillis != 1000 ||
		p.Binding != migrate.BindingAdaptive || p.Match != owl.MatchSemantic || !p.SuspendOnExit {
		t.Fatalf("policy = %+v", p)
	}
}

// staticLocator pins a user to a room for re-evaluation tests.
type staticLocator struct{ user, room string }

func (l staticLocator) Location(user string) (string, bool) {
	if user != l.user {
		return "", false
	}
	return l.room, true
}

// TestAAReattachesOnClusterRehome drives the agent layer's failover
// follow-up: the cluster layer re-homes the managed app onto this AA's
// host while the user has meanwhile settled in a room served elsewhere;
// the cluster.rehomed event alone must make the AA chase them.
func TestAAReattachesOnClusterRehome(t *testing.T) {
	r := newAgentRig(t)
	r.aaBody.Locator = staticLocator{user: "alice", room: "office822"}

	// Simulate failover having relaunched the player here (the rig's
	// instance already runs on hostA, the AA's engine).
	r.kernel.Publish(ctxkernel.Event{
		Topic: ctxkernel.TopicClusterRehomed, At: time.Unix(1, 0), Source: "cluster",
		Attrs: map[string]string{"app": "player", "from": "hostC", "to": "hostA", "restored": "true"},
	})

	// The AA re-evaluates: alice is in office822 (served by hostB), so it
	// orders the MA to follow her without any fresh movement event.
	waitFor(t, "app chased to hostB after rehome", func() bool {
		inst, ok := r.engB.App("player")
		return ok && inst.State() == app.Running
	})
	if _, still := r.engA.App("player"); still {
		t.Fatal("player still on hostA after post-rehome chase")
	}
}

// TestAAIgnoresRehomeOfOtherApps: a rehomed event for an app this AA does
// not manage must not trigger any order.
func TestAAIgnoresRehomeOfOtherApps(t *testing.T) {
	r := newAgentRig(t)
	r.aaBody.Locator = staticLocator{user: "alice", room: "office822"}
	r.kernel.Publish(ctxkernel.Event{
		Topic: ctxkernel.TopicClusterRehomed, At: time.Unix(1, 0), Source: "cluster",
		Attrs: map[string]string{"app": "someone-elses-app", "from": "hostC", "to": "hostA"},
	})
	time.Sleep(50 * time.Millisecond)
	if _, moved := r.engB.App("player"); moved {
		t.Fatal("AA reacted to another app's rehome")
	}
	if _, ok := r.engA.App("player"); !ok {
		t.Fatal("player left hostA without an order")
	}
}
