// Package app implements MDAgent's two-level application model (paper
// Fig. 3, §4.2). The upper level holds what users see: logic controllers,
// presentations, data and resource components, plus profiles and the
// WSDL-like interface description. The base level holds the supporting
// machinery: the Coordinator (Observer pattern — presentations register
// and are notified automatically on state changes, giving the
// loosely-coupled architecture of §4.2.1), the SnapshotManager
// (persistence of running state), and the Adaptor (bridging device
// mismatches after migration). The mobile agent binds to any subset of
// serializable components — "mobile agent is not bounded to a specific
// component of applications; instead it can wrap any serializable part".
package app

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"mdagent/internal/gobcodec"
)

// ComponentKind classifies migratable application parts, following the
// paper's decomposition into logics, presentations, resources and data.
type ComponentKind int

// Component kinds.
const (
	KindLogic ComponentKind = iota + 1
	KindUI
	KindData
	KindState
)

func (k ComponentKind) String() string {
	switch k {
	case KindLogic:
		return "logic"
	case KindUI:
		return "ui"
	case KindData:
		return "data"
	case KindState:
		return "state"
	default:
		return "invalid"
	}
}

// Component is a migratable application part: it must name itself, report
// its payload size (for transfer costing) and serialize round-trip.
//
// Captured bytes are immutable. The slice Snapshot returns may be the one
// the component holds, and the slice Restore is given may be kept: neither
// side ever writes into it again. A component whose content changes
// replaces its slice; it does not edit it. That is what lets every stage
// between a suspended application and its resumed copy — the snapshot
// history, the transfer wrap, the engine's warm-handoff base, a decoded
// frame, state.ApplyDelta's result — share one copy of the bytes.
type Component interface {
	Name() string
	Kind() ComponentKind
	SizeBytes() int64
	Snapshot() ([]byte, error)
	Restore(state []byte) error
}

// ChangeNotifier is implemented by components that announce content
// mutations. The Application registers a callback when such a component
// is added, maintaining per-component dirty counters so the state
// pipeline can skip serializing components — or whole applications —
// that have not changed since the last capture. Components that do not
// implement it are treated as always-dirty (see Application.FullyTracked).
type ChangeNotifier interface {
	// OnContentChange registers fn to be called (outside the component's
	// own lock) after every mutation of the serialized content.
	OnContentChange(fn func())
}

// BlobComponent is a Component holding opaque bytes — the stand-in for
// compiled logic, UI bundles, and media data payloads.
type BlobComponent struct {
	name string
	kind ComponentKind

	mu       sync.Mutex
	data     []byte
	onChange func()
}

var (
	_ Component      = (*BlobComponent)(nil)
	_ ChangeNotifier = (*BlobComponent)(nil)
)

// NewBlob creates a blob component that adopts data as its payload: the
// caller must not write into the slice afterwards (see Component).
func NewBlob(name string, kind ComponentKind, data []byte) *BlobComponent {
	return &BlobComponent{name: name, kind: kind, data: data}
}

// NewSizedBlob creates a blob of size bytes of deterministic content,
// convenient for synthetic logic/UI/data payloads. Byte i is
// byte(i*131 + len(name)).
//
// Every such blob in the process is a view of one shared fill: captured
// bytes are never written (see Component), so an installed skeleton's UI
// bundle costs no allocation however many arrivals instantiate it. Since
// 131*43 = 1 (mod 256), byte i for name length k is byte i+43k of the
// k = 0 fill, so one buffer serves every name at offset 43k mod 256. The
// view is capacity-capped: an append reallocates instead of writing into
// the next view's bytes.
func NewSizedBlob(name string, kind ComponentKind, size int64) *BlobComponent {
	off := int64(43*len(name)) % 256
	fill := sharedFill(off + size)
	return NewBlob(name, kind, fill[off:off+size:off+size])
}

// sized holds the process-wide fill behind NewSizedBlob: byte i is
// byte(i*131). It is only ever replaced by a longer one, never edited, so
// earlier views keep their bytes.
var sized struct {
	mu   sync.Mutex
	fill []byte
}

// sharedFill returns the shared fill, at least n bytes long.
func sharedFill(n int64) []byte {
	sized.mu.Lock()
	defer sized.mu.Unlock()
	if n <= int64(len(sized.fill)) {
		return sized.fill
	}
	fill := make([]byte, n)
	period := fill[:min(len(fill), 256)]
	for i := range period {
		period[i] = byte(i * 131)
	}
	for n := len(period); n < len(fill); n *= 2 {
		copy(fill[n:], fill[:n])
	}
	sized.fill = fill
	return fill
}

// Name implements Component.
func (b *BlobComponent) Name() string { return b.name }

// Kind implements Component.
func (b *BlobComponent) Kind() ComponentKind { return b.kind }

// SizeBytes implements Component.
func (b *BlobComponent) SizeBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return int64(len(b.data))
}

// Checksum returns the SHA-256 of the payload, for integrity checks after
// migration.
func (b *BlobComponent) Checksum() [32]byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return sha256.Sum256(b.data)
}

// Snapshot implements Component. It returns the held slice, not a copy:
// the payload is only ever replaced (SetContent, Restore), never written.
func (b *BlobComponent) Snapshot() ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.data, nil
}

// SetContent replaces the payload with a copy of data (the caller keeps
// its buffer) — a media app swapping its buffer, an editor saving a
// document. The mutation bumps the owning application's dirty counter so
// the next state capture ships it.
func (b *BlobComponent) SetContent(data []byte) {
	b.mu.Lock()
	b.data = make([]byte, len(data))
	copy(b.data, data)
	fn := b.onChange
	b.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Restore implements Component. It adopts state as the payload.
func (b *BlobComponent) Restore(state []byte) error {
	b.mu.Lock()
	b.data = state
	fn := b.onChange
	b.mu.Unlock()
	if fn != nil {
		fn()
	}
	return nil
}

// OnContentChange implements ChangeNotifier.
func (b *BlobComponent) OnContentChange(fn func()) {
	b.mu.Lock()
	b.onChange = fn
	b.mu.Unlock()
}

// StateComponent is a small key-value state component — playback
// positions, cursor offsets, session fields. It is the piece that always
// migrates, in both adaptive and static binding.
type StateComponent struct {
	name string

	mu       sync.Mutex
	fields   map[string]string
	onChange func()
}

var (
	_ Component      = (*StateComponent)(nil)
	_ ChangeNotifier = (*StateComponent)(nil)
)

// NewState creates an empty state component.
func NewState(name string) *StateComponent {
	return &StateComponent{name: name, fields: make(map[string]string)}
}

// Name implements Component.
func (s *StateComponent) Name() string { return s.name }

// Kind implements Component.
func (s *StateComponent) Kind() ComponentKind { return KindState }

// Set stores a state field.
func (s *StateComponent) Set(key, value string) {
	s.mu.Lock()
	s.fields[key] = value
	fn := s.onChange
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Get reads a state field.
func (s *StateComponent) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.fields[key]
	return v, ok
}

// SizeBytes implements Component.
func (s *StateComponent) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for k, v := range s.fields {
		n += int64(len(k) + len(v) + 2)
	}
	return n
}

// Snapshot implements Component.
func (s *StateComponent) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := gobcodec.Encode(s.fields)
	if err != nil {
		return nil, fmt.Errorf("app: state snapshot: %w", err)
	}
	return b, nil
}

// Restore implements Component.
func (s *StateComponent) Restore(state []byte) error {
	fields := make(map[string]string)
	if err := gobcodec.Decode(state, &fields); err != nil {
		return fmt.Errorf("app: state restore: %w", err)
	}
	s.mu.Lock()
	s.fields = fields
	fn := s.onChange
	s.mu.Unlock()
	if fn != nil {
		fn()
	}
	return nil
}

// OnContentChange implements ChangeNotifier.
func (s *StateComponent) OnContentChange(fn func()) {
	s.mu.Lock()
	s.onChange = fn
	s.mu.Unlock()
}
