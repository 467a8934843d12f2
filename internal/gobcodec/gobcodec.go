// Package gobcodec encodes and decodes self-contained gob payloads — one
// value per []byte, descriptors included — without paying gob's set-up on
// every message. A fresh gob.Encoder re-sends the type descriptors of
// everything the value can reach, and a fresh gob.Decoder reads them and
// compiles a decode engine per nested type before it reads a field; for a
// registry record that set-up is ~90 % of the work.
//
// Encode keeps, per Go type, encoders that have already sent their
// descriptors, and writes a copy of the recorded descriptor bytes in front
// of the value message they emit. The output is byte-for-byte what a fresh
// encoder writes: gob type ids are process-global and assigned at a type's
// first use, so neither the descriptors nor the value message depend on
// which encoder produced them.
//
// Decode splits a payload on gob's message framing into its descriptor
// prefix and its value message, and keeps, per target type and per
// *received* prefix (a sender's type ids are its own, so the receiver
// cannot compute the prefix), decoders that have consumed exactly that
// prefix; they are fed the value message alone.
//
// Everything else takes the path the callers took before this package
// existed — a fresh encoder or decoder per call: a type whose tree reaches
// an interface, chan or func (the concrete type behind an interface is
// described at first use, so both sides would depend on history), a
// payload over maxPooled, a payload that does not split, a fifth distinct
// prefix for one target type, a nil or non-pointer target. Any error
// drops the codec it happened on and the answer is taken from a fresh one.
package gobcodec

import (
	"bytes"
	"encoding"
	"encoding/gob"
	"reflect"
	"sync"
	"sync/atomic"
)

const (
	// maxPooled bounds what a pooled codec may have seen: a gob.Encoder
	// keeps a buffer the size of its largest message and a gob.Decoder
	// keeps its last one, so a multi-megabyte wrap goes through a codec
	// that is dropped afterwards. At that size the set-up is noise.
	maxPooled = 1 << 20
	// maxPrefixes bounds the decoders kept per target type. Distinct
	// prefixes for one type mean distinct sender builds; a deployment
	// mid-upgrade has two.
	maxPrefixes = 4
)

// calls counts Encode and Decode calls, so a test can hold a code path
// to a budget of gob calls.
var calls atomic.Uint64

// Calls returns how many times Encode and Decode have been called in this
// process.
func Calls() uint64 { return calls.Load() }

// Encode gob-encodes v into a new slice the caller owns.
func Encode(v any) ([]byte, error) {
	calls.Add(1)
	et := encTypeOf(v)
	if et == nil {
		return encodeFresh(v)
	}
	if e, _ := et.pool.Get().(*encoder); e != nil {
		prefix := *et.prefix.Load()
		e.buf.Write(prefix)
		err := e.enc.Encode(v)
		out := e.take()
		// A primed encoder owes exactly one message, the value.
		if cut, ok := split(out[len(prefix):]); err != nil || !ok || cut != 0 {
			return encodeFresh(v)
		}
		if len(out) <= maxPooled {
			et.pool.Put(e)
		}
		return out, nil
	}
	e := new(encoder)
	e.enc = gob.NewEncoder(&e.buf)
	err := e.enc.Encode(v)
	out := e.take()
	if err != nil {
		return nil, err
	}
	if cut, ok := split(out); ok && len(out) <= maxPooled {
		if et.prefix.Load() == nil {
			prefix := bytes.Clone(out[:cut])
			et.prefix.CompareAndSwap(nil, &prefix)
		}
		et.pool.Put(e)
	}
	return out, nil
}

func encodeFresh(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode gob-decodes the payload p into v, a non-nil pointer.
func Decode(p []byte, v any) error {
	calls.Add(1)
	dt := decTypeOf(v)
	if dt == nil || len(p) > maxPooled {
		return decodeFresh(p, v)
	}
	cut, ok := split(p)
	if !ok || cut == 0 {
		return decodeFresh(p, v)
	}
	slot, full := dt.lookup(p[:cut])
	if slot != nil {
		if d, _ := slot.pool.Get().(*decoder); d != nil {
			if d.decode(p[cut:], v) != nil {
				return decodeFresh(p, v)
			}
			slot.pool.Put(d)
			return nil
		}
	} else if full {
		return decodeFresh(p, v)
	}
	// Prime a decoder by letting it read the whole payload. The prefix is
	// remembered only now that a payload carrying it has decoded, so bytes
	// that merely frame correctly cannot fill the table.
	d := new(decoder)
	d.dec = gob.NewDecoder(&d.r)
	if err := d.decode(p, v); err != nil {
		return err
	}
	if slot == nil {
		slot = dt.remember(p[:cut])
	}
	if slot != nil {
		slot.pool.Put(d)
	}
	return nil
}

func decodeFresh(p []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(p)).Decode(v)
}

// encoder is a gob.Encoder bound to its own output buffer.
type encoder struct {
	buf bytes.Buffer
	enc *gob.Encoder
}

// take hands the written bytes to the caller and leaves the encoder with
// an empty buffer, so the output is not copied again and a pooled encoder
// holds on to none of it.
func (e *encoder) take() []byte {
	out := e.buf.Bytes()
	e.buf = bytes.Buffer{}
	return out
}

// encType is the encode-side state of one Go type.
type encType struct {
	prefix atomic.Pointer[[]byte] // descriptor messages a fresh encoder sends first; set before the first Put
	pool   sync.Pool              // *encoder that has sent them
}

// decoder is a gob.Decoder bound to a reader that can be pointed at the
// next payload.
type decoder struct {
	r   bytes.Reader
	dec *gob.Decoder
}

func (d *decoder) decode(p []byte, v any) error {
	d.r.Reset(p)
	err := d.dec.Decode(v)
	d.r.Reset(nil)
	return err
}

// decType is the decode-side state of one target type.
type decType struct {
	mu    sync.RWMutex
	slots []*decSlot // at most maxPrefixes, never removed
}

// decSlot holds the decoders that have consumed one descriptor prefix.
type decSlot struct {
	prefix []byte
	pool   sync.Pool // *decoder
}

// lookup returns the slot for prefix, or whether the table has no room
// for another.
func (dt *decType) lookup(prefix []byte) (slot *decSlot, full bool) {
	dt.mu.RLock()
	defer dt.mu.RUnlock()
	if s := dt.find(prefix); s != nil {
		return s, false
	}
	return nil, len(dt.slots) >= maxPrefixes
}

func (dt *decType) find(prefix []byte) *decSlot {
	for _, s := range dt.slots {
		if bytes.Equal(s.prefix, prefix) {
			return s
		}
	}
	return nil
}

// remember adds a slot for prefix; nil when the table filled meanwhile.
func (dt *decType) remember(prefix []byte) *decSlot {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if s := dt.find(prefix); s != nil {
		return s
	}
	if len(dt.slots) >= maxPrefixes {
		return nil
	}
	s := &decSlot{prefix: bytes.Clone(prefix)}
	dt.slots = append(dt.slots, s)
	return s
}

var (
	encTypes sync.Map // reflect.Type -> *encType, nil for a type that does not qualify
	decTypes sync.Map // reflect.Type -> *decType, likewise

	encOpaque = []reflect.Type{
		reflect.TypeFor[gob.GobEncoder](),
		reflect.TypeFor[encoding.BinaryMarshaler](),
		reflect.TypeFor[encoding.TextMarshaler](),
	}
	decOpaque = []reflect.Type{
		reflect.TypeFor[gob.GobDecoder](),
		reflect.TypeFor[encoding.BinaryUnmarshaler](),
		reflect.TypeFor[encoding.TextUnmarshaler](),
	}
)

func encTypeOf(v any) *encType {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil
	}
	return stateOf[encType](&encTypes, t, encOpaque)
}

func decTypeOf(v any) *decType {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return nil
	}
	return stateOf[decType](&decTypes, rv.Type(), decOpaque)
}

// stateOf returns the state m keeps for t, creating it at t's first use;
// nil when t does not qualify.
func stateOf[S any](m *sync.Map, t reflect.Type, opaque []reflect.Type) *S {
	if s, ok := m.Load(t); ok {
		return s.(*S)
	}
	var s *S
	if static(t, opaque, map[reflect.Type]bool{}) {
		s = new(S)
	}
	got, _ := m.LoadOrStore(t, s)
	return got.(*S)
}

// static reports whether the gob messages for a value of type t depend on
// t alone: gob reaches no interface, chan or func from it. A type gob
// hands to its own marshaling methods (opaque lists them, for the
// direction in question) is a leaf, as it is for gob.
func static(t reflect.Type, opaque []reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface, reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return false
	}
	for _, i := range opaque {
		if t.Implements(i) || reflect.PointerTo(t).Implements(i) {
			return true
		}
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return static(t.Elem(), opaque, seen)
	case reflect.Map:
		return static(t.Key(), opaque, seen) && static(t.Elem(), opaque, seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() && !static(f.Type, opaque, seen) {
				return false
			}
		}
	}
	return true
}

// split parses p as a complete gob payload — type-definition messages,
// then one value message, nothing after — and returns the offset of the
// value message. The framing is the one encoding/gob documents: each
// message is a byte count, then a signed type id that is negative for a
// definition. Anything else is not ok, and is left to gob to judge.
func split(p []byte) (cut int, ok bool) {
	for off := 0; off < len(p); {
		size, n := readUint(p[off:])
		if n == 0 || size == 0 || size > uint64(len(p)-off-n) {
			return 0, false
		}
		body := p[off+n : off+n+int(size)]
		id, m := readUint(body)
		if m == 0 {
			return 0, false
		}
		if id&1 == 0 { // a value: must be the last message
			return off, off+n+int(size) == len(p)
		}
		off += n + int(size)
	}
	return 0, false
}

// readUint reads gob's unsigned integer encoding: one byte below 128, or
// the negated count of big-endian bytes that follow. n is 0 when p does
// not hold one.
func readUint(p []byte) (x uint64, n int) {
	if len(p) == 0 {
		return 0, 0
	}
	if p[0] <= 0x7f {
		return uint64(p[0]), 1
	}
	n = -int(int8(p[0]))
	if n > 8 || len(p) < 1+n {
		return 0, 0
	}
	for _, b := range p[1 : 1+n] {
		x = x<<8 | uint64(b)
	}
	return x, 1 + n
}
