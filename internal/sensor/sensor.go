// Package sensor implements MDAgent's sensor layer (paper §4.1: "Sensor
// layer will collect data from these physically or logically deployed
// sensors detecting users' mobility, network connectivity, latency,
// etc."). The paper's testbed deployed "dozens of Cricket Sensors ... to
// collect user's location and identity data"; lacking hardware, this
// package simulates a Cricket field: beacons fixed in rooms emit noisy
// distance readings to user-worn badges moving along scripted paths, and
// network probes sample link response times. Raw readings are deliberately
// low-level — fusing them into semantic facts (user X in room Y) is the
// context layer's job, exactly as the paper prescribes.
package sensor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/vclock"
)

// Kind discriminates raw reading types.
type Kind int

// Reading kinds.
const (
	// KindDistance is a Cricket-style ultrasound distance measurement
	// between a fixed beacon and a mobile badge.
	KindDistance Kind = iota + 1
	// KindBadge is an RF badge-identity detection (who, not where).
	KindBadge
	// KindNetwork is a link response-time observation.
	KindNetwork
)

func (k Kind) String() string {
	switch k {
	case KindDistance:
		return "distance"
	case KindBadge:
		return "badge"
	case KindNetwork:
		return "network"
	default:
		return "invalid"
	}
}

// Reading is one raw sensor datum. Only the fields relevant to its Kind
// are populated.
type Reading struct {
	Kind     Kind
	SensorID string        // emitting sensor
	Badge    string        // badge id (distance and badge readings)
	Beacon   string        // beacon id (distance readings)
	Distance float64       // meters (distance readings)
	FromHost string        // network readings
	ToHost   string        // network readings
	RTT      time.Duration // network readings
	At       time.Time     // reading timestamp (host clock)
}

// Point is a 2-D coordinate in meters within a space.
type Point struct{ X, Y float64 }

func (p Point) dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Beacon is a fixed Cricket beacon mounted in a room.
type Beacon struct {
	ID   string
	Room string
	Pos  Point
}

// Field is a deployed Cricket sensor field: beacons across rooms, badges
// worn by users. It is safe for concurrent use.
type Field struct {
	clock vclock.Clock

	mu        sync.Mutex
	beacons   []Beacon
	roomPos   map[string]Point // room center, where badges sit while dwelling
	badges    map[string]string
	positions map[string]Point // badge -> current position
	noiseStd  float64          // distance noise, meters
	rng       *rand.Rand
}

// beaconRange is the beacon detection range in meters.
const beaconRange = 12

// FieldOption configures a Field.
type FieldOption func(*Field)

// WithNoise sets the distance-measurement noise standard deviation in
// meters (default 0.15, in line with Cricket's reported accuracy).
func WithNoise(std float64) FieldOption {
	return func(f *Field) { f.noiseStd = std }
}

// WithFieldSeed seeds the deterministic noise source.
func WithFieldSeed(seed int64) FieldOption {
	return func(f *Field) { f.rng = rand.New(rand.NewSource(seed)) }
}

// NewField creates an empty field timed by clock.
func NewField(clock vclock.Clock, opts ...FieldOption) *Field {
	f := &Field{
		clock:     clock,
		roomPos:   make(map[string]Point),
		badges:    make(map[string]string),
		positions: make(map[string]Point),
		noiseStd:  0.15,
		rng:       rand.New(rand.NewSource(17)),
	}
	for _, o := range opts {
		o(f)
	}
	return f
}

// AddRoom places a room center and a beacon in it.
func (f *Field) AddRoom(room string, center Point) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.roomPos[room] = center
	f.beacons = append(f.beacons, Beacon{
		ID:   fmt.Sprintf("cricket-%s-%d", room, len(f.beacons)),
		Room: room,
		Pos:  center,
	})
}

// AddBadge registers a badge worn by user, initially placed in room.
func (f *Field) AddBadge(badge, user, room string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pos, ok := f.roomPos[room]
	if !ok {
		return fmt.Errorf("sensor: unknown room %q", room)
	}
	f.badges[badge] = user
	f.positions[badge] = pos
	return nil
}

// User returns the user wearing a badge.
func (f *Field) User(badge string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	u, ok := f.badges[badge]
	return u, ok
}

// MoveBadge teleports a badge to a room's center (coarse mobility; the
// paper's location granularity is the room).
func (f *Field) MoveBadge(badge, room string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	pos, ok := f.roomPos[room]
	if !ok {
		return fmt.Errorf("sensor: unknown room %q", room)
	}
	if _, ok := f.badges[badge]; !ok {
		return fmt.Errorf("sensor: unknown badge %q", badge)
	}
	f.positions[badge] = pos
	return nil
}

// Sample produces the current crop of raw readings: for every badge, a
// badge-identity reading plus one noisy distance reading per in-range
// beacon. Readings are timestamped with the field clock.
func (f *Field) Sample() []Reading {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.clock.Now()
	var out []Reading
	badges := make([]string, 0, len(f.badges))
	for b := range f.badges {
		badges = append(badges, b)
	}
	sort.Strings(badges) // deterministic order
	for _, b := range badges {
		pos := f.positions[b]
		out = append(out, Reading{
			Kind: KindBadge, SensorID: "badge-listener", Badge: b, At: now,
		})
		for _, bc := range f.beacons {
			d := pos.dist(bc.Pos)
			if d > beaconRange {
				continue
			}
			noisy := d + f.rng.NormFloat64()*f.noiseStd
			if noisy < 0 {
				noisy = 0
			}
			out = append(out, Reading{
				Kind: KindDistance, SensorID: bc.ID, Badge: b,
				Beacon: bc.ID, Distance: noisy, At: now,
			})
		}
	}
	return out
}

// BeaconRoom resolves a beacon id to its room.
func (f *Field) BeaconRoom(beacon string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, bc := range f.beacons {
		if bc.ID == beacon {
			return bc.Room, true
		}
	}
	return "", false
}

// NetworkProbe samples response times between host pairs on a netsim
// network, producing KindNetwork readings (the "network connectivity,
// latency" sensors of §4.1).
type NetworkProbe struct {
	net   *netsim.Network
	pairs [][2]string
}

// NewNetworkProbe creates a probe over the given host pairs.
func NewNetworkProbe(net *netsim.Network, pairs [][2]string) *NetworkProbe {
	return &NetworkProbe{net: net, pairs: pairs}
}

// Sample measures every configured pair once.
func (p *NetworkProbe) Sample() ([]Reading, error) {
	now := p.net.Clock().Now()
	out := make([]Reading, 0, len(p.pairs))
	for _, pair := range p.pairs {
		rtt, err := p.net.ResponseTime(pair[0], pair[1])
		if err != nil {
			return nil, fmt.Errorf("sensor: probe %s->%s: %w", pair[0], pair[1], err)
		}
		out = append(out, Reading{
			Kind: KindNetwork, SensorID: "netprobe",
			FromHost: pair[0], ToHost: pair[1], RTT: rtt, At: now,
		})
	}
	return out, nil
}

// Step is one leg of a scripted user path: enter a room and dwell.
type Step struct {
	Room  string
	Dwell time.Duration
}

// Script is a scripted movement path for one badge.
type Script struct {
	Badge string
	Steps []Step
}

// Walker replays movement scripts against a field, sampling at a fixed
// tick and delivering readings to a callback. It drives the whole sensing
// pipeline in examples and benchmarks.
type Walker struct {
	field *Field
	tick  time.Duration
}

// NewWalker creates a walker sampling every tick of the field's clock.
func NewWalker(field *Field, tick time.Duration) *Walker {
	return &Walker{field: field, tick: tick}
}

// Run replays the script, invoking emit for every reading batch. It
// charges the field clock one tick per sample, so virtual-clock runs are
// instantaneous and real-clock runs play out in real time. Cancellation
// is checked between samples, so a canceled real-clock replay stops
// mid-dwell with ctx.Err().
func (w *Walker) Run(ctx context.Context, script Script, emit func([]Reading)) error {
	for _, step := range script.Steps {
		if err := w.field.MoveBadge(script.Badge, step.Room); err != nil {
			return err
		}
		remaining := step.Dwell
		for remaining > 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("sensor: walk interrupted: %w", err)
			}
			w.field.clock.Charge(w.tick)
			emit(w.field.Sample())
			remaining -= w.tick
		}
	}
	return nil
}
