// Package demoapps builds the demo applications the paper implemented on
// the MDAgent prototype (§5): "smart media player, follow-me editor,
// ubiquitous slide show, handheld editor, handheld music player, and
// follow-me instant messenger" — all but the handheld editor, which no
// scenario runs. Each constructor assembles an
// app.Application from the two-level model's components; *Skeleton
// constructors build the partial installations destinations typically
// have (e.g. the player UI without data or logic, or a meeting room's
// presentation app without the slides).
package demoapps

import (
	"fmt"
	"strconv"

	"mdagent/internal/app"
	"mdagent/internal/media"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/wsdl"
)

func mustAdd(a *app.Application, cs ...app.Component) {
	for _, c := range cs {
		if err := a.AddComponent(c); err != nil {
			panic(fmt.Sprintf("demoapps: %v", err)) // static construction bug
		}
	}
}

func desc(name, doc string, ops []wsdl.Operation, req wsdl.Requirements) wsdl.Description {
	return wsdl.Description{
		Name: name, Provider: "imcl", Version: "1.0", Doc: doc,
		Services: []wsdl.Service{{
			Name:  name + "-svc",
			Ports: []wsdl.Port{{Name: "ctl", Operations: ops}},
		}},
		Requires: req,
	}
}

// MediaPlayerDesc is the smart media player's interface description.
func MediaPlayerDesc() wsdl.Description {
	return desc("smart-media-player", "follow-me music player (paper demo 1)",
		[]wsdl.Operation{
			{Name: "play", Input: "trackRef", Output: "status"},
			{Name: "pause", Output: "status"},
			{Name: "seek", Input: "positionMs", Output: "status"},
		},
		wsdl.Requirements{MinScreenWidth: 320, MinScreenHeight: 240, MinMemoryMB: 64, NeedsAudio: true})
}

// MusicResource describes a song as the paper's Fig. 8 scenario does:
// untransferable data (served by URL when absent at the destination).
func MusicResource(song media.File, host string) owl.Resource {
	return owl.Resource{
		ID: song.Name, Class: rdf.IMCL("MusicFile"), Host: host,
		SizeBytes: song.Size(), Transferable: false, Substitutable: false,
		Attrs: map[string]string{"checksum": song.Checksum},
	}
}

// NewMediaPlayer assembles the full player on host, playing song.
func NewMediaPlayer(host string, song media.File) *app.Application {
	a := app.New("smart-media-player", host, MediaPlayerDesc())
	mustAdd(a,
		app.NewSizedBlob("codec-logic", app.KindLogic, 350<<10),
		app.NewUI("player-ui", 400<<10, 1024, 768),
		app.NewBlob(song.Name, app.KindData, song.Data),
		app.NewState("playback-state"),
	)
	st, _ := a.Component("playback-state")
	st.(*app.StateComponent).Set("track", song.Name)
	st.(*app.StateComponent).Set("positionMs", "0")
	a.Coordinator().Set("track", song.Name)
	a.BindResource(MusicResource(song, host))
	// Presentations observe coordinator state (Fig. 3's observer wiring).
	ui, _ := a.Component("player-ui")
	a.Coordinator().Register("player-ui", ui.(*app.UIComponent))
	return a
}

// MediaPlayerSkeleton is the paper's measured destination installation:
// "the destination host contains the application user interface but no
// music data nor application logic".
func MediaPlayerSkeleton(host string) *app.Application {
	a := app.New("smart-media-player", host, MediaPlayerDesc())
	mustAdd(a, app.NewUI("player-ui", 400<<10, 1024, 768))
	ui, _ := a.Component("player-ui")
	a.Coordinator().Register("player-ui", ui.(*app.UIComponent))
	return a
}

// MediaPlayerSkeletonComponents names the skeleton's installed parts.
func MediaPlayerSkeletonComponents() []string { return []string{"player-ui"} }

// EditorDesc is the follow-me editor's interface description.
func EditorDesc() wsdl.Description {
	return desc("followme-editor", "follow-me text editor (paper demo list)",
		[]wsdl.Operation{
			{Name: "insert", Input: "text", Output: "status"},
			{Name: "delete", Input: "range", Output: "status"},
			{Name: "save", Output: "status"},
		},
		wsdl.Requirements{MinScreenWidth: 640, MinScreenHeight: 480, MinMemoryMB: 64, NeedsDisplay: true})
}

// NewEditor assembles the editor with an initial document.
func NewEditor(host, document string) *app.Application {
	a := app.New("followme-editor", host, EditorDesc())
	mustAdd(a,
		app.NewSizedBlob("editor-logic", app.KindLogic, 450<<10),
		app.NewUI("editor-ui", 300<<10, 1024, 768),
		app.NewBlob("document", app.KindData, []byte(document)),
		app.NewState("edit-state"),
	)
	st, _ := a.Component("edit-state")
	st.(*app.StateComponent).Set("cursor", "0")
	st.(*app.StateComponent).Set("dirty", "false")
	ui, _ := a.Component("editor-ui")
	a.Coordinator().Register("editor-ui", ui.(*app.UIComponent))
	return a
}

// EditorSkeleton has the editor code but no document.
func EditorSkeleton(host string) *app.Application {
	a := app.New("followme-editor", host, EditorDesc())
	mustAdd(a,
		app.NewSizedBlob("editor-logic", app.KindLogic, 450<<10),
		app.NewUI("editor-ui", 300<<10, 1024, 768),
	)
	ui, _ := a.Component("editor-ui")
	a.Coordinator().Register("editor-ui", ui.(*app.UIComponent))
	return a
}

// EditorSkeletonComponents names the skeleton's installed parts.
func EditorSkeletonComponents() []string { return []string{"editor-logic", "editor-ui"} }

// SlideShowDesc is the ubiquitous slide show's interface description.
func SlideShowDesc() wsdl.Description {
	return desc("ubiquitous-slideshow", "clone-dispatch lecture slideshow (paper demo 2)",
		[]wsdl.Operation{
			{Name: "next", Output: "slideNo"},
			{Name: "prev", Output: "slideNo"},
			{Name: "goto", Input: "slideNo", Output: "slideNo"},
		},
		wsdl.Requirements{MinScreenWidth: 800, MinScreenHeight: 600, NeedsDisplay: true})
}

// NewSlideShow assembles the speaker's master presentation.
func NewSlideShow(host string, deck media.SlideDeck) *app.Application {
	a := app.New("ubiquitous-slideshow", host, SlideShowDesc())
	comps := []app.Component{
		app.NewSizedBlob("presenter-logic", app.KindLogic, 700<<10),
		app.NewUI("presenter-ui", 500<<10, 1024, 768),
		app.NewState("show-state"),
	}
	var deckBytes []byte
	for _, s := range deck.Slides {
		deckBytes = append(deckBytes, s.Data...)
	}
	comps = append(comps, app.NewBlob("slides", app.KindData, deckBytes))
	mustAdd(a, comps...)
	st, _ := a.Component("show-state")
	st.(*app.StateComponent).Set("slide", "1")
	st.(*app.StateComponent).Set("slideCount", strconv.Itoa(len(deck.Slides)))
	a.Coordinator().Set("slide", "1")
	ui, _ := a.Component("presenter-ui")
	a.Coordinator().Register("presenter-ui", ui.(*app.UIComponent))
	return a
}

// SlidesResource describes the deck as transferable data: "MAs just need
// to carry the slides to the destination" (§5 demo 2).
func SlidesResource(deck media.SlideDeck, host string) owl.Resource {
	return owl.Resource{
		ID: "slides", Class: rdf.IMCL("SlideDeck"), Host: host,
		SizeBytes: deck.Size(), Transferable: true, Substitutable: false,
	}
}

// SlideShowSkeleton is a meeting room's installation: "each meeting room
// is equipped with a presentation application, a projector, what lacks is
// the slides".
func SlideShowSkeleton(host string) *app.Application {
	a := app.New("ubiquitous-slideshow", host, SlideShowDesc())
	mustAdd(a,
		app.NewSizedBlob("presenter-logic", app.KindLogic, 700<<10),
		app.NewUI("presenter-ui", 500<<10, 1024, 768),
	)
	ui, _ := a.Component("presenter-ui")
	a.Coordinator().Register("presenter-ui", ui.(*app.UIComponent))
	return a
}

// SlideShowSkeletonComponents names the skeleton's installed parts.
func SlideShowSkeletonComponents() []string { return []string{"presenter-logic", "presenter-ui"} }

// ProjectorResource describes a room's projector: substitutable,
// untransferable (the paper's canonical §4.4 example shape).
func ProjectorResource(id, host, room string) owl.Resource {
	return owl.Resource{
		ID: id, Class: rdf.IMCL("Projector"), Host: host, Location: room,
		Transferable: false, Substitutable: true,
	}
}

// HandheldPlayerDesc targets PDA-class playback.
func HandheldPlayerDesc() wsdl.Description {
	return desc("handheld-player", "handheld music player",
		[]wsdl.Operation{{Name: "play"}, {Name: "pause"}},
		wsdl.Requirements{MinScreenWidth: 240, MinScreenHeight: 160, MinMemoryMB: 32, NeedsAudio: true})
}

// NewHandheldPlayer assembles the handheld player.
func NewHandheldPlayer(host string, song media.File) *app.Application {
	a := app.New("handheld-player", host, HandheldPlayerDesc())
	mustAdd(a,
		app.NewSizedBlob("hh-codec-logic", app.KindLogic, 200<<10),
		app.NewUI("hh-player-ui", 60<<10, 320, 240),
		app.NewBlob(song.Name, app.KindData, song.Data),
		app.NewState("hh-playback-state"),
	)
	a.BindResource(MusicResource(song, host))
	ui, _ := a.Component("hh-player-ui")
	a.Coordinator().Register("hh-player-ui", ui.(*app.UIComponent))
	return a
}

// MessengerDesc is the follow-me instant messenger's description.
func MessengerDesc() wsdl.Description {
	return desc("followme-messenger", "follow-me instant messenger with session continuity",
		[]wsdl.Operation{
			{Name: "send", Input: "text", Output: "status"},
			{Name: "history", Output: "messages"},
		},
		wsdl.Requirements{MinScreenWidth: 320, MinScreenHeight: 240, MinMemoryMB: 32})
}

// NewMessenger assembles the messenger for a user session.
func NewMessenger(host, user string) *app.Application {
	a := app.New("followme-messenger", host, MessengerDesc())
	mustAdd(a,
		app.NewSizedBlob("im-logic", app.KindLogic, 350<<10),
		app.NewUI("im-ui", 250<<10, 1024, 768),
		app.NewState("im-session"),
	)
	st, _ := a.Component("im-session")
	st.(*app.StateComponent).Set("user", user)
	st.(*app.StateComponent).Set("messageCount", "0")
	a.SetProfile(app.UserProfile{User: user, Preferences: map[string]string{}})
	ui, _ := a.Component("im-ui")
	a.Coordinator().Register("im-ui", ui.(*app.UIComponent))
	return a
}

// MessengerSend appends a message to the session state and coordinator —
// a tiny logic-controller action used by the example and tests.
func MessengerSend(a *app.Application, text string) error {
	comp, ok := a.Component("im-session")
	if !ok {
		return fmt.Errorf("demoapps: %s has no im-session", a.Name())
	}
	st, ok := comp.(*app.StateComponent)
	if !ok {
		return fmt.Errorf("demoapps: im-session has unexpected type %T", comp)
	}
	raw, _ := st.Get("messageCount")
	n, _ := strconv.Atoi(raw)
	st.Set(fmt.Sprintf("msg-%03d", n), text)
	st.Set("messageCount", strconv.Itoa(n+1))
	a.Coordinator().Set("lastMessage", text)
	return nil
}
