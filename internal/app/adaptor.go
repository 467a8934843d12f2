package app

import (
	"fmt"
	"strconv"
	"sync"

	"mdagent/internal/wsdl"
)

// Adaptation is the set of presentation adjustments computed for a
// destination device (paper §4.2.2: "the mobile agent will contact
// adaptor to conduct necessary adaptations according to some customizable
// parameters to adjust some sizes, resolutions, etc.").
type Adaptation struct {
	TargetHost   string
	ScaleX       float64 // horizontal UI scale factor
	ScaleY       float64 // vertical UI scale factor
	FontScale    float64
	MirrorLayout bool // left-handed users get mirrored controls (§1)
	MutedAudio   bool // device without audio: visual-only fallback
	Notes        []string
}

// Adaptable is implemented by presentations that can re-render for a
// device.
type Adaptable interface {
	Adapt(ad Adaptation) error
}

// Adaptor computes adaptations from device profiles and user preferences.
type Adaptor struct{}

// refW x refH is the geometry presentations were designed for: the
// paper-era desktop.
const refW, refH = 1024, 768

// NewAdaptor returns an adaptor.
func NewAdaptor() *Adaptor {
	return &Adaptor{}
}

// Plan computes the adaptation for a device and user profile.
func (ad *Adaptor) Plan(dev wsdl.DeviceProfile, profile UserProfile) Adaptation {
	a := Adaptation{TargetHost: dev.Host, ScaleX: 1, ScaleY: 1, FontScale: 1}
	if dev.ScreenWidth > 0 && dev.ScreenWidth != refW {
		a.ScaleX = float64(dev.ScreenWidth) / float64(refW)
	}
	if dev.ScreenHeight > 0 && dev.ScreenHeight != refH {
		a.ScaleY = float64(dev.ScreenHeight) / float64(refH)
	}
	// Small screens get enlarged fonts relative to the geometric scale so
	// text stays legible (handheld editor / handheld player demos).
	if a.ScaleX < 0.5 {
		a.FontScale = a.ScaleX * 1.6
		a.Notes = append(a.Notes, "small screen: font compensation applied")
	} else {
		a.FontScale = a.ScaleX
	}
	if hand, ok := profile.Preferences["handedness"]; ok && hand == "left" {
		a.MirrorLayout = true
		a.Notes = append(a.Notes, "left-handed user: mirrored layout")
	}
	if !dev.HasAudio {
		a.MutedAudio = true
		a.Notes = append(a.Notes, "no audio device: visual-only mode")
	}
	return a
}

// Apply plans an adaptation and applies it to every Adaptable component
// of the application, returning the plan and how many components adapted.
func (ad *Adaptor) Apply(a *Application, dev wsdl.DeviceProfile) (Adaptation, int, error) {
	plan := ad.Plan(dev, a.Profile())
	adapted := 0
	for _, name := range a.Components() {
		c, ok := a.Component(name)
		if !ok {
			continue
		}
		if target, ok := c.(Adaptable); ok {
			if err := target.Adapt(plan); err != nil {
				return plan, adapted, fmt.Errorf("app: adapt %s: %w", name, err)
			}
			adapted++
		}
	}
	return plan, adapted, nil
}

// UIComponent is a presentation: a blob payload (the UI bundle) plus
// live geometry that the adaptor adjusts and the coordinator notifies.
type UIComponent struct {
	*BlobComponent

	mu       sync.Mutex
	width    int
	height   int
	mirrored bool
	renders  int // Notify count, for tests and demos
}

var (
	_ Component = (*UIComponent)(nil)
	_ Adaptable = (*UIComponent)(nil)
	_ Observer  = (*UIComponent)(nil)
)

// NewUI creates a presentation of the given bundle size and design
// geometry.
func NewUI(name string, bundleSize int64, width, height int) *UIComponent {
	return &UIComponent{
		BlobComponent: NewSizedBlob(name, KindUI, bundleSize),
		width:         width,
		height:        height,
	}
}

// Adapt implements Adaptable.
func (u *UIComponent) Adapt(ad Adaptation) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.width = int(float64(u.width) * ad.ScaleX)
	u.height = int(float64(u.height) * ad.ScaleY)
	if u.width < 1 || u.height < 1 {
		return fmt.Errorf("app: adaptation collapsed %s to %dx%d", u.Name(), u.width, u.height)
	}
	u.mirrored = ad.MirrorLayout
	return nil
}

// Notify implements Observer: the presentation re-renders on state change.
func (u *UIComponent) Notify(StateChange) {
	u.mu.Lock()
	u.renders++
	u.mu.Unlock()
}

// Geometry returns the current width and height.
func (u *UIComponent) Geometry() (w, h int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.width, u.height
}

// Mirrored reports whether the layout is mirrored for a left-handed user.
func (u *UIComponent) Mirrored() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.mirrored
}

// Renders reports how many state notifications the presentation received.
func (u *UIComponent) Renders() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.renders
}

// GeometryString renders the geometry for logs, e.g. "320x240".
func (u *UIComponent) GeometryString() string {
	w, h := u.Geometry()
	return strconv.Itoa(w) + "x" + strconv.Itoa(h)
}
