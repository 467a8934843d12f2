package demoapps

import (
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/media"
	"mdagent/internal/wsdl"
)

func TestMediaPlayerAssembly(t *testing.T) {
	song := media.GenerateFile("song.mp3", 1<<20, 1)
	p := NewMediaPlayer("hostA", song)
	if p.Name() != "smart-media-player" || p.Host() != "hostA" {
		t.Fatalf("identity = %s@%s", p.Name(), p.Host())
	}
	for _, comp := range []string{"codec-logic", "player-ui", "song.mp3", "playback-state"} {
		if _, ok := p.Component(comp); !ok {
			t.Fatalf("missing component %q", comp)
		}
	}
	st, _ := p.Component("playback-state")
	if v, _ := st.(*app.StateComponent).Get("track"); v != "song.mp3" {
		t.Fatalf("track = %q", v)
	}
	if rs := p.Resources(); len(rs) != 1 || rs[0].ID != "song.mp3" || rs[0].Transferable {
		t.Fatalf("resources = %+v", rs)
	}
	// The UI observes the coordinator.
	ui, _ := p.Component("player-ui")
	p.Coordinator().Set("track", "other")
	if ui.(*app.UIComponent).Renders() != 1 {
		t.Fatal("UI not observing coordinator")
	}
	d := p.Description()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMediaPlayerSkeletonIsUIOnly(t *testing.T) {
	s := MediaPlayerSkeleton("hostB")
	if got := s.Components(); len(got) != 1 || got[0] != "player-ui" {
		t.Fatalf("skeleton components = %v", got)
	}
	if got := MediaPlayerSkeletonComponents(); len(got) != 1 || got[0] != "player-ui" {
		t.Fatalf("declared components = %v", got)
	}
}

func TestEditorAssembly(t *testing.T) {
	e := NewEditor("deskA", "hello world")
	doc, ok := e.Component("document")
	if !ok {
		t.Fatal("document missing")
	}
	snap, err := doc.Snapshot()
	if err != nil || string(snap) != "hello world" {
		t.Fatalf("document = %q, %v", snap, err)
	}
	sk := EditorSkeleton("deskB")
	if _, hasDoc := sk.Component("document"); hasDoc {
		t.Fatal("skeleton carries a document")
	}
	if len(EditorSkeletonComponents()) != 2 {
		t.Fatalf("skeleton components = %v", EditorSkeletonComponents())
	}
}

func TestSlideShowAssembly(t *testing.T) {
	deck := media.GenerateDeck("talk", 10, 1<<20, 2)
	s := NewSlideShow("mainHost", deck)
	slides, ok := s.Component("slides")
	if !ok {
		t.Fatal("slides missing")
	}
	if slides.SizeBytes() != deck.Size() {
		t.Fatalf("slides = %d bytes, want %d", slides.SizeBytes(), deck.Size())
	}
	st, _ := s.Component("show-state")
	if v, _ := st.(*app.StateComponent).Get("slideCount"); v != "10" {
		t.Fatalf("slideCount = %q", v)
	}
	res := SlidesResource(deck, "mainHost")
	if !res.Transferable || res.SizeBytes != deck.Size() {
		t.Fatalf("slides resource = %+v", res)
	}
	proj := ProjectorResource("p1", "roomHost", "room1")
	if proj.Transferable || !proj.Substitutable {
		t.Fatalf("projector resource = %+v", proj)
	}
	if _, hasSlides := SlideShowSkeleton("r").Component("slides"); hasSlides {
		t.Fatal("skeleton carries slides")
	}
}

func TestHandheldApps(t *testing.T) {
	song := media.GenerateFile("s", 1<<18, 3)
	hp := NewHandheldPlayer("pda1", song)
	if _, ok := hp.Component("hh-codec-logic"); !ok {
		t.Fatal("handheld player logic missing")
	}
	hd := hp.Description()
	if err := hd.Validate(); err != nil {
		t.Fatal(err)
	}
	if hd.Requires.MinScreenWidth > 240 {
		t.Fatal("handheld player demands too much screen")
	}
}

func TestMessengerSend(t *testing.T) {
	im := NewMessenger("dorm", "carol")
	if err := MessengerSend(im, "first"); err != nil {
		t.Fatal(err)
	}
	if err := MessengerSend(im, "second"); err != nil {
		t.Fatal(err)
	}
	st, _ := im.Component("im-session")
	sc := st.(*app.StateComponent)
	if v, _ := sc.Get("messageCount"); v != "2" {
		t.Fatalf("messageCount = %q", v)
	}
	if v, _ := sc.Get("msg-001"); v != "second" {
		t.Fatalf("msg-001 = %q", v)
	}
	if v, _ := im.Coordinator().Get("lastMessage"); v != "second" {
		t.Fatalf("lastMessage = %q", v)
	}
	// Sending on an app without a session errors cleanly.
	broken := NewEditor("x", "d")
	if err := MessengerSend(broken, "x"); err == nil {
		t.Fatal("send on non-messenger accepted")
	}
}

func TestAllDescriptionsValidate(t *testing.T) {
	descs := map[string]wsdl.Description{
		"player":    MediaPlayerDesc(),
		"editor":    EditorDesc(),
		"slideshow": SlideShowDesc(),
		"hh-player": HandheldPlayerDesc(),
		"messenger": MessengerDesc(),
	}
	for name, d := range descs {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
