package ctxkernel

import (
	"math"
	"strconv"
	"sync"

	"mdagent/internal/sensor"
)

// Fusion turns raw sensor readings into semantic context events: nearest
// in-range beacon fixes the badge's room; the badge registry names the
// user; room changes publish user.left / user.entered / user.location
// events; network probe readings publish network.rtt events (paper §3.4:
// "the underlying sensors can only collect raw data such as distance,
// badge (listener) identity, etc. To map these data to useful information
// such as location, user identity, etc. requires context fusion
// mechanisms").
type Fusion struct {
	field  *sensor.Field
	kernel *Kernel

	mu           sync.Mutex
	location     map[string]string // user -> current room
	pending      map[string]string // user -> candidate room
	pendingCount map[string]int
}

// confirmations debounces noise: a new room must win this many
// consecutive samples before a move is declared, which filters
// single-sample noise.
const confirmations = 2

// NewFusion builds a fusion stage publishing into kernel.
func NewFusion(field *sensor.Field, kernel *Kernel) *Fusion {
	return &Fusion{
		field:        field,
		kernel:       kernel,
		location:     make(map[string]string),
		pending:      make(map[string]string),
		pendingCount: make(map[string]int),
	}
}

// Location returns the fused current room of a user.
func (f *Fusion) Location(user string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.location[user]
	return r, ok
}

// Consume processes one batch of raw readings (typically one Walker tick).
func (f *Fusion) Consume(readings []sensor.Reading) {
	// Nearest beacon per badge in this batch.
	type best struct {
		dist   float64
		beacon string
	}
	nearest := make(map[string]best)
	for _, r := range readings {
		switch r.Kind {
		case sensor.KindDistance:
			b, ok := nearest[r.Badge]
			if !ok || r.Distance < b.dist {
				nearest[r.Badge] = best{dist: r.Distance, beacon: r.Beacon}
			}
		case sensor.KindNetwork:
			f.kernel.Publish(Event{
				Topic:  TopicNetworkRTT,
				Source: r.SensorID,
				At:     r.At,
				Attrs: map[string]string{
					AttrFrom:  r.FromHost,
					AttrTo:    r.ToHost,
					AttrRTTMs: strconv.FormatInt(r.RTT.Milliseconds(), 10),
				},
			})
		}
	}
	for badge, b := range nearest {
		if math.IsInf(b.dist, 1) {
			continue
		}
		room, ok := f.field.BeaconRoom(b.beacon)
		if !ok {
			continue
		}
		user, ok := f.field.User(badge)
		if !ok {
			continue
		}
		f.observe(user, badge, room, readings)
	}
}

func (f *Fusion) observe(user, badge, room string, readings []sensor.Reading) {
	var at = readings[0].At

	f.mu.Lock()
	cur, known := f.location[user]
	if known && cur == room {
		// Stable: clear any pending move.
		delete(f.pending, user)
		delete(f.pendingCount, user)
		f.mu.Unlock()
		return
	}
	// Debounce: require consecutive confirmations for a change.
	if f.pending[user] == room {
		f.pendingCount[user]++
	} else {
		f.pending[user] = room
		f.pendingCount[user] = 1
	}
	confirmed := f.pendingCount[user] >= confirmations || !known
	if !confirmed {
		f.mu.Unlock()
		return
	}
	delete(f.pending, user)
	delete(f.pendingCount, user)
	f.location[user] = room
	f.mu.Unlock()

	if known {
		f.kernel.Publish(Event{
			Topic: TopicUserLeft, Source: "fusion", At: at,
			Attrs: map[string]string{AttrUser: user, AttrBadge: badge, AttrRoom: cur},
		})
	}
	f.kernel.Publish(Event{
		Topic: TopicUserEntered, Source: "fusion", At: at,
		Attrs: map[string]string{AttrUser: user, AttrBadge: badge, AttrRoom: room, AttrFrom: cur},
	})
	f.kernel.Publish(Event{
		Topic: TopicUserLocation, Source: "fusion", At: at,
		Attrs: map[string]string{AttrUser: user, AttrBadge: badge, AttrRoom: room},
	})
}
