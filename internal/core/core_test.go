package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mdagent/internal/agents"
	"mdagent/internal/app"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/sensor"
	"mdagent/internal/store"
	"mdagent/internal/wsdl"
)

func desktop(host string) wsdl.DeviceProfile {
	return wsdl.DeviceProfile{
		Host: host, ScreenWidth: 1024, ScreenHeight: 768,
		MemoryMB: 512, HasAudio: true, HasDisplay: true, Platform: "linux",
	}
}

// labDeployment provisions the paper's testbed: two hosts in one space,
// three rooms, alice with a badge, the media player running on hostA and
// its skeleton installed on hostB.
func labDeployment(t *testing.T) (*Middleware, media.File) {
	t.Helper()
	mw, err := New(Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mw.Close() })
	if err := mw.AddSpace("lab-space"); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AddHost("hostA", "lab-space", netsim.Pentium4_1700(), desktop("hostA"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AddHost("hostB", "lab-space", netsim.PentiumM_1600(), desktop("hostB"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddRoom("office821", "hostA", sensor.Point{X: 0, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddRoom("corridor", "hostA", sensor.Point{X: 6, Y: 5}); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddRoom("office822", "hostB", sensor.Point{X: 12, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddUser("alice", "badge-1", "office821"); err != nil {
		t.Fatal(err)
	}

	song := media.GenerateFile("blue-danube", 2<<20, 9)
	hostA, _ := mw.Host("hostA")
	hostA.Library.Add(song)

	player := demoapps.NewMediaPlayer("hostA", song)
	player.SetProfile(app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}})
	if err := mw.RunApp(context.Background(), "hostA", player); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterResource(demoapps.MusicResource(song, "hostA")); err != nil {
		t.Fatal(err)
	}
	if err := mw.InstallApp(context.Background(), "hostB", "smart-media-player", demoapps.MediaPlayerDesc(),
		demoapps.MediaPlayerSkeletonComponents(),
		func(host string) *app.Application { return demoapps.MediaPlayerSkeleton(host) }); err != nil {
		t.Fatal(err)
	}
	return mw, song
}

func TestEndToEndFollowMeViaSensors(t *testing.T) {
	mw, _ := labDeployment(t)
	if err := mw.StartAgents(context.Background(), agents.DefaultPolicy("alice", "smart-media-player")); err != nil {
		t.Fatal(err)
	}
	// Alice walks: office821 -> corridor (same host) -> office822 (hostB).
	script := sensor.Script{Badge: "badge-1", Steps: []sensor.Step{
		{Room: "office821", Dwell: 2 * time.Second},
		{Room: "corridor", Dwell: 2 * time.Second},
		{Room: "office822", Dwell: 3 * time.Second},
	}}
	if err := mw.Walk(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	if err := mw.WaitAppOn(context.Background(), "smart-media-player", "hostB", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	inst, host, ok := mw.FindApp("smart-media-player")
	if !ok || host != "hostB" {
		t.Fatalf("app at %q, %v", host, ok)
	}
	// State continuity: the track survived the journey.
	if v, _ := inst.Coordinator().Get("track"); v != "blue-danube" {
		t.Fatalf("track = %q", v)
	}
	// The music data did NOT move; it is URL-bound to hostA.
	urlBound := false
	for _, res := range inst.Resources() {
		if strings.Contains(res.Attrs["url"], "mdagent://hostA/media/blue-danube") {
			urlBound = true
		}
	}
	if !urlBound {
		t.Fatalf("resources = %+v", inst.Resources())
	}
	// Context layer artifacts: classifier stored alice's location history,
	// predictor learned the route.
	if ev, ok := mw.Classifier.Latest(ctxkernel.TopicUserLocation, "alice"); !ok || ev.Attr(ctxkernel.AttrRoom) != "office822" {
		t.Fatalf("classifier latest = %+v, %v", ev, ok)
	}
	if room, _, ok := mw.Predictor.Predict("alice", "corridor"); !ok || room != "office822" {
		t.Fatalf("predictor = %q, %v", room, ok)
	}
}

func TestEndToEndMultiHopFollowMe(t *testing.T) {
	mw, _ := labDeployment(t)
	// A third host/room in the same space with the skeleton installed.
	if _, err := mw.AddHost("hostC", "lab-space", netsim.PentiumM_1600(), desktop("hostC"), 0); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddRoom("office823", "hostC", sensor.Point{X: 24, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := mw.InstallApp(context.Background(), "hostC", "smart-media-player", demoapps.MediaPlayerDesc(),
		demoapps.MediaPlayerSkeletonComponents(),
		func(host string) *app.Application { return demoapps.MediaPlayerSkeleton(host) }); err != nil {
		t.Fatal(err)
	}
	if err := mw.StartAgents(context.Background(), agents.DefaultPolicy("alice", "smart-media-player")); err != nil {
		t.Fatal(err)
	}
	script := sensor.Script{Badge: "badge-1", Steps: []sensor.Step{
		{Room: "office821", Dwell: time.Second},
		{Room: "office822", Dwell: 3 * time.Second},
		{Room: "office823", Dwell: 3 * time.Second},
	}}
	if err := mw.Walk(context.Background(), script); err != nil {
		t.Fatal(err)
	}
	if err := mw.WaitAppOn(context.Background(), "smart-media-player", "hostC", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Two hops: the app must exist only on hostC.
	for _, h := range []string{"hostA", "hostB"} {
		rt, _ := mw.Host(h)
		if _, still := rt.Engine.App("smart-media-player"); still {
			t.Fatalf("app still on %s after multi-hop", h)
		}
	}
}

func TestEndToEndCloneDispatchAcrossSpaces(t *testing.T) {
	// The paper's demo 2: lecture slides cloned to overflow rooms in a
	// different cyber domain, synchronized with the speaker's controls.
	mw, err := New(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	for _, s := range []string{"main-space", "overflow-space"} {
		if err := mw.AddSpace(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mw.AddHost("mainHost", "main-space", netsim.Pentium4_1700(), desktop("mainHost"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mw.AddHost("roomHost", "overflow-space", netsim.PentiumM_1600(), desktop("roomHost"), 0); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddGateway("gwMain", "main-space", netsim.Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if err := mw.AddGateway("gwOverflow", "overflow-space", netsim.Pentium4_1700()); err != nil {
		t.Fatal(err)
	}

	deck := media.GenerateDeck("icdcs-talk", 20, 3<<20, 4)
	show := demoapps.NewSlideShow("mainHost", deck)
	show.BindResource(demoapps.SlidesResource(deck, "mainHost"))
	if err := mw.RunApp(context.Background(), "mainHost", show); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterResource(demoapps.SlidesResource(deck, "mainHost")); err != nil {
		t.Fatal(err)
	}
	if err := mw.RegisterResource(demoapps.ProjectorResource("proj-1", "roomHost", "meetingRoom1")); err != nil {
		t.Fatal(err)
	}
	if err := mw.InstallApp(context.Background(), "roomHost", "ubiquitous-slideshow", demoapps.SlideShowDesc(),
		demoapps.SlideShowSkeletonComponents(),
		func(host string) *app.Application { return demoapps.SlideShowSkeleton(host) }); err != nil {
		t.Fatal(err)
	}

	mainRt, _ := mw.Host("mainHost")
	roomRt, _ := mw.Host("roomHost")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := mainRt.Engine.CloneDispatch(ctx, "ubiquitous-slideshow", "roomHost", "slideshow@room1", owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.InterSpace {
		t.Fatal("clone did not cross spaces")
	}
	// The slides travelled (transferable data), ~3 MB.
	if rep.BytesMoved < 3<<20 {
		t.Fatalf("bytes moved = %d, want the ~3 MiB deck", rep.BytesMoved)
	}
	clone, ok := roomRt.Engine.App("slideshow@room1")
	if !ok {
		t.Fatal("clone missing")
	}
	// Speaker advances a slide; the overflow room follows.
	show.Coordinator().Set("slide", "2")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, _ := clone.Coordinator().Get("slide"); v == "2" {
			break
		}
		if time.Now().After(deadline) {
			v, _ := clone.Coordinator().Get("slide")
			t.Fatalf("clone slide = %q, want 2", v)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMessengerFollowMeKeepsSession(t *testing.T) {
	mw, _ := labDeployment(t)
	im := demoapps.NewMessenger("hostA", "alice")
	if err := mw.RunApp(context.Background(), "hostA", im); err != nil {
		t.Fatal(err)
	}
	if err := demoapps.MessengerSend(im, "hello from office821"); err != nil {
		t.Fatal(err)
	}
	if err := demoapps.MessengerSend(im, "moving rooms now"); err != nil {
		t.Fatal(err)
	}
	hostA, _ := mw.Host("hostA")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// No skeleton on hostB: the messenger carries logic+UI along (the
	// paper's "Otherwise, it will also carry the logics and user
	// interface as well as the states").
	rep, err := hostA.Engine.FollowMe(ctx, "followme-messenger", "hostB", 1 /* adaptive */, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Carried) != 3 { // logic + ui + session state
		t.Fatalf("carried = %v", rep.Carried)
	}
	hostB, _ := mw.Host("hostB")
	moved, ok := hostB.Engine.App("followme-messenger")
	if !ok {
		t.Fatal("messenger missing at hostB")
	}
	st, _ := moved.Component("im-session")
	if v, _ := st.(*app.StateComponent).Get("messageCount"); v != "2" {
		t.Fatalf("messageCount = %q", v)
	}
	if v, _ := st.(*app.StateComponent).Get("msg-001"); v != "moving rooms now" {
		t.Fatalf("msg-001 = %q", v)
	}
}

func TestConfigDefaults(t *testing.T) {
	mw, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mw.Close()
	if mw.Clock == nil || mw.Net == nil || mw.Center == nil {
		t.Fatal("defaults not applied")
	}
	if got := mw.Hosts(); len(got) != 0 {
		t.Fatalf("fresh deployment has hosts: %v", got)
	}
}

func TestValidationErrors(t *testing.T) {
	mw, _ := labDeployment(t)
	if err := mw.RunApp(context.Background(), "ghostHost", demoapps.NewMessenger("x", "u")); err == nil {
		t.Fatal("RunApp on unknown host accepted")
	}
	if err := mw.InstallApp(context.Background(), "ghostHost", "x", demoapps.MessengerDesc(), nil, nil); err == nil {
		t.Fatal("InstallApp on unknown host accepted")
	}
	if err := mw.WaitAppOn(context.Background(), "x", "ghostHost", time.Millisecond); err == nil {
		t.Fatal("WaitAppOn unknown host accepted")
	}
	if err := mw.WaitAppOn(context.Background(), "no-such-app", "hostA", 10*time.Millisecond); err == nil {
		t.Fatal("WaitAppOn missing app accepted")
	}
	if _, _, ok := mw.FindApp("no-such-app"); ok {
		t.Fatal("FindApp found a ghost")
	}
}

func TestPersistentRegistryAcrossDeployments(t *testing.T) {
	path := t.TempDir() + "/registry.log"
	mw1, err := New(Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := mw1.AddSpace("s"); err != nil {
		t.Fatal(err)
	}
	if _, err := mw1.AddHost("h1", "s", netsim.Pentium4_1700(), desktop("h1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := mw1.RegisterResource(demoapps.ProjectorResource("p1", "h1", "r1")); err != nil {
		t.Fatal(err)
	}
	if err := mw1.Close(); err != nil {
		t.Fatal(err)
	}

	mw2, err := New(Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer mw2.Close()
	if res := mw2.Center.ResourcesOnHost("h1"); len(res) != 1 || res[0].ID != "p1" {
		t.Fatalf("resources after restart = %v", res)
	}
}

// TestRetiredStoreIsRefused: New over a StorePath in a retired layout — a
// seed-format log, a standalone registry's directory in the registry
// layout — fails with an error wrapping store.ErrLayout that names the
// converting commit, and leaves the files as they were. (The directory's
// blob log, the one retired layout a build still reads, the store
// converts on its own first.)
func TestRetiredStoreIsRefused(t *testing.T) {
	for name, fixture := range map[string]string{
		"seed-log":        "../store/testdata/seed-v0.log",
		"registry-layout": "../cluster/testdata/parent-stores/standalone",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store")
			fi, err := os.Stat(fixture)
			if err != nil {
				t.Fatal(err)
			}
			if fi.IsDir() {
				err = os.CopyFS(path, os.DirFS(fixture))
			} else {
				var raw []byte
				if raw, err = os.ReadFile(fixture); err == nil {
					err = os.WriteFile(path, raw, 0o644)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if db, err := store.Open(path); err == nil {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := treeFiles(t, dir)
			mw, err := New(Config{StorePath: path})
			if err == nil {
				mw.Close()
				t.Fatal("New over a retired store succeeded")
			}
			if !errors.Is(err, store.ErrLayout) || !strings.Contains(err.Error(), "3a28188") {
				t.Fatalf("New = %v, want store.ErrLayout naming 3a28188", err)
			}
			if !reflect.DeepEqual(treeFiles(t, dir), before) {
				t.Fatal("the refused New changed the store's files")
			}
		})
	}
}

// treeFiles reads every file under root, keyed by its path relative to
// root; a directory maps to nil.
func treeFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			out[rel] = nil
			return nil
		}
		out[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
