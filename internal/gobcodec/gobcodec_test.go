package gobcodec

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// FreshEncode is what every caller did before this package: the reference
// the pooled path must match byte for byte. (Exported, like
// CheckMatchesFreshEncoder, for the external test package beside this file.)
func FreshEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("reference encode of %T: %v", v, err)
	}
	return buf.Bytes()
}

// CheckMatchesFreshEncoder encodes v 100 times from each of 8 goroutines:
// every output equals a fresh encoder's and decodes back to v.
func CheckMatchesFreshEncoder(t *testing.T, v any) {
	t.Helper()
	if encTypeOf(v) == nil {
		t.Fatalf("%T does not qualify for the pooled path; the test would compare fresh with fresh", v)
	}
	want := FreshEncode(t, v)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				got, err := Encode(v)
				if err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("call %d: %d bytes differ from a fresh encoder's %d\n got %x\nwant %x", i, len(got), len(want), got, want)
					return
				}
				out := reflect.New(reflect.TypeOf(v))
				if err := Decode(got, out.Interface()); err != nil {
					t.Errorf("call %d: decode: %v", i, err)
					return
				}
				if !reflect.DeepEqual(out.Elem().Interface(), v) {
					t.Errorf("call %d: decoded %+v, want %+v", i, out.Elem().Interface(), v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type leaf struct {
	Name   string
	In, Ou string
}

type branch struct {
	Name   string
	Leaves []leaf
}

type nested struct {
	ID      string
	Host    string
	Branch  branch
	Others  []branch
	Ptr     *leaf
	NilPtr  *leaf
	Tags    []string
	Digest  [32]byte
	Dims    [3]int
	At      time.Time
	Took    time.Duration
	Running bool
	Temp    temperature
	hidden  chan int // unexported: gob never looks, neither does the walk
}

// temperature is a GobEncoder: opaque to gob, and to the walk.
type temperature struct{ milli int64 }

func (c temperature) GobEncode() ([]byte, error) {
	return []byte(fmt.Sprintf("%dmK", c.milli)), nil
}

func (c *temperature) GobDecode(p []byte) error {
	_, err := fmt.Sscanf(string(p), "%dmK", &c.milli)
	return err
}

// tree is recursive through a slice and a pointer.
type tree struct {
	Label string
	Kids  []tree
	Next  *tree
}

type withMap struct {
	Name  string
	Attrs map[string]string
	Blobs map[string][]byte
}

func sampleNested() nested {
	return nested{
		ID: "smart-media-player", Host: "hostA",
		Branch: branch{Name: "playback", Leaves: []leaf{{"play", "track", "ack"}, {"stop", "", ""}}},
		Others: []branch{{Name: "a"}, {Name: "b", Leaves: []leaf{{Name: "x"}}}},
		Ptr:    &leaf{Name: "pointed"},
		Tags:   []string{"ui", "logic", ""},
		Digest: [32]byte{1, 2, 3, 30: 9},
		Dims:   [3]int{800, 600, -1},
		At:     time.Date(2007, 6, 25, 9, 30, 0, 42, time.UTC),
		Took:   1500 * time.Millisecond, Running: true,
		Temp: temperature{293150},
	}
}

// byteCases are values whose encoding is deterministic (no map with more
// than one entry).
func byteCases() map[string]any {
	n := sampleNested()
	return map[string]any{
		"nested struct":    n,
		"pointer to it":    &n,
		"slice of structs": []leaf{{"a", "b", "c"}, {}, {Name: "z"}},
		"struct{}":         struct{}{},
		"array":            [4]branch{{Name: "first"}, {}, {}, {Name: "last"}},
		"time":             time.Date(2026, 10, 2, 12, 0, 0, 0, time.UTC),
		"GobEncoder":       temperature{-40000},
		"recursive":        tree{Label: "root", Kids: []tree{{Label: "kid", Kids: []tree{{Label: "grandkid"}}}}, Next: &tree{Label: "next"}},
		"string":           "bare string",
		"int":              -12345,
		"[]string":         []string{"x", "", "y"},
		"[]byte":           []byte{0, 1, 2, 0xff},
		"one-entry maps":   withMap{Name: "m", Attrs: map[string]string{"k": "v"}, Blobs: map[string][]byte{"b": {1}}},
		"top-level map":    map[string]string{"positionMs": "93500"},
	}
}

func TestEncodeMatchesFreshEncoder(t *testing.T) {
	for name, v := range byteCases() {
		t.Run(name, func(t *testing.T) { CheckMatchesFreshEncoder(t, v) })
	}
}

// Map iteration order is not fixed, so neither are the bytes — for a fresh
// encoder either. What must hold is the value.
func TestMapsRoundTrip(t *testing.T) {
	v := withMap{Name: "maps",
		Attrs: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"},
		Blobs: map[string][]byte{"x": {1, 2}, "y": {3}, "z": bytes.Repeat([]byte{7}, 300)}}
	for i := 0; i < 100; i++ {
		p, err := Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != len(FreshEncode(t, v)) {
			t.Fatalf("call %d: %d bytes, a fresh encoder writes %d", i, len(p), len(FreshEncode(t, v)))
		}
		var viaCodec, viaGob withMap
		if err := Decode(p, &viaCodec); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(viaCodec, v) || !reflect.DeepEqual(viaGob, v) {
			t.Fatalf("call %d: codec %+v, gob %+v, want %+v", i, viaCodec, viaGob, v)
		}
	}
}

// What gob refuses, the codec refuses with gob's own words, every time.
func TestEncodeErrorsAreGobs(t *testing.T) {
	for _, v := range []any{struct{ hidden int }{1}, nil, make(chan int), func() {}} {
		_, want := freshEncodeErr(v)
		if want == nil {
			t.Fatalf("gob encodes %T; pick another case", v)
		}
		for i := 0; i < 3; i++ {
			if _, err := Encode(v); err == nil || err.Error() != want.Error() {
				t.Fatalf("Encode(%T) call %d = %v, gob says %v", v, i, err, want)
			}
		}
	}
}

func freshEncodeErr(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

type shape interface{ Area() int }
type square struct{ Side int }
type rect struct{ W, H int }

func (s square) Area() int { return s.Side * s.Side }
func (r rect) Area() int   { return r.W * r.H }

type drawing struct {
	Name  string
	Shape shape
}

// The concrete type behind an interface is described when an encoder first
// meets it, so a pooled encoder's output would depend on what it encoded
// before. Such types never reach a pool.
func TestInterfaceTypesTakeTheFreshPath(t *testing.T) {
	gob.Register(square{})
	gob.Register(rect{})
	if encTypeOf(drawing{}) != nil || decTypeOf(&drawing{}) != nil {
		t.Fatal("a type with an interface field qualified for the pooled path")
	}
	for _, c := range []struct {
		name string
		t    any
	}{
		{"chan field", struct{ C chan int }{}},
		{"func field", struct{ F func() }{}},
		{"interface elem", []any{}},
		{"interface map value", map[string]any{}},
		{"nested", struct{ In struct{ Deep []*drawing } }{}},
	} {
		if encTypeOf(c.t) != nil {
			t.Errorf("%s: %T qualified", c.name, c.t)
		}
	}
	for round := 0; round < 3; round++ {
		for _, v := range []drawing{{"sq", square{3}}, {"re", rect{2, 5}}, {"none", nil}} {
			p, err := Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := FreshEncode(t, v); !bytes.Equal(p, want) {
				t.Fatalf("round %d %s: bytes differ from a fresh encoder's", round, v.Name)
			}
			var viaGob, viaCodec drawing
			if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&viaGob); err != nil {
				t.Fatalf("round %d %s: a fresh gob.Decoder cannot read it: %v", round, v.Name, err)
			}
			if err := Decode(p, &viaCodec); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(viaGob, v) || !reflect.DeepEqual(viaCodec, v) {
				t.Fatalf("round %d: decoded %+v / %+v, want %+v", round, viaGob, viaCodec, v)
			}
		}
	}
}

func TestDecodeTargetsGobRefuses(t *testing.T) {
	p := FreshEncode(t, leaf{Name: "x"})
	var l leaf
	var nilPtr *leaf
	for _, target := range []any{l, nilPtr} {
		want := gob.NewDecoder(bytes.NewReader(p)).Decode(target)
		if err := Decode(p, target); want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("Decode into %T = %v, gob says %v", target, err, want)
		}
	}
	if err := Decode(p, nil); err != nil { // gob discards the value
		t.Fatal(err)
	}
	if err := Decode(p, &l); err != nil || l.Name != "x" {
		t.Fatalf("valid decode afterwards: %+v, %v", l, err)
	}
}

// slotsOf returns the prefixes remembered for the target's type.
func slotsOf(target any) [][]byte {
	dt := decTypeOf(target)
	dt.mu.RLock()
	defer dt.mu.RUnlock()
	var out [][]byte
	for _, s := range dt.slots {
		out = append(out, s.prefix)
	}
	return out
}

// target types used by exactly one test each, so their tables start empty.
type (
	foreignLeaf struct{ Name string }
	foreignRec  struct {
		Name   string
		Leaves []foreignLeaf
		N      int
	}
	crowded   struct{ A, B, C, D, E, F string }
	corrupted struct {
		Name   string
		Leaves []leaf
		Tags   []string
		N      int64
	}
	huge struct {
		Name string
		Data []byte
	}
)

const childEnv = "GOBCODEC_TEST_CHILD"

// TestMain doubles as the foreign sender: re-executed with childEnv set, it
// hands out type ids in an order the parent never does (foreignLeaf before
// foreignRec, padding in between), then prints one plain-gob payload.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "" {
		os.Exit(m.Run())
	}
	type pad1 struct{ X []struct{ Y map[string]int } }
	type pad2 struct{ Z [3]struct{ W string } }
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := errors.Join(enc.Encode(foreignLeaf{"first"}), enc.Encode(pad1{}), enc.Encode(pad2{Z: [3]struct{ W string }{{"w"}}})); err != nil {
		panic(err)
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(foreignRec{Name: "from afar", Leaves: []foreignLeaf{{"a"}}, N: 7}); err != nil {
		panic(err)
	}
	fmt.Println(hex.EncodeToString(buf.Bytes()))
}

// A sender's type ids are its own: the same type arrives under a different
// descriptor prefix from a process that registered types in another order.
// It decodes, and gets its own slot next to the local one.
func TestForeignTypeIDSpace(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child: %v", err)
	}
	foreign, err := hex.DecodeString(strings.TrimSpace(string(out)))
	if err != nil {
		t.Fatalf("child printed %q: %v", out, err)
	}
	want := foreignRec{Name: "from afar", Leaves: []foreignLeaf{{"a"}}, N: 7}
	local := FreshEncode(t, want)
	if bytes.Equal(foreign, local) {
		t.Fatal("the child's type ids match ours; the test proves nothing")
	}
	for i := 0; i < 3; i++ {
		for _, p := range [][]byte{local, foreign} {
			var got foreignRec
			if err := Decode(p, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, want %+v", got, want)
			}
		}
	}
	slots := slotsOf(&foreignRec{})
	if len(slots) != 2 || bytes.Equal(slots[0], slots[1]) {
		t.Fatalf("%d slots, want one per sender", len(slots))
	}
	if !bytes.HasPrefix(local, slots[0]) || !bytes.HasPrefix(foreign, slots[1]) {
		t.Fatal("slots do not hold the received prefixes")
	}
}

// Five sender builds of one type: four get a slot, the fifth is served by
// a fresh decoder every time and pushes nobody out.
func TestFifthPrefixServedFresh(t *testing.T) {
	senders := []any{
		struct{ A string }{"1"},
		struct{ A, B string }{"2", "b"},
		struct{ A, B, C string }{"3", "b", "c"},
		struct{ A, B, C, D string }{"4", "b", "c", "d"},
		struct{ A, B, C, D, E string }{"5", "b", "c", "d", "e"},
	}
	var payloads [][]byte
	for _, s := range senders {
		payloads = append(payloads, FreshEncode(t, s))
	}
	for round := 0; round < 3; round++ {
		for i, p := range payloads {
			var got crowded
			if err := Decode(p, &got); err != nil {
				t.Fatal(err)
			}
			if got.A != fmt.Sprint(i+1) || (i > 0) != (got.B == "b") {
				t.Fatalf("sender %d decoded as %+v", i+1, got)
			}
		}
		slots := slotsOf(&crowded{})
		if len(slots) != maxPrefixes {
			t.Fatalf("round %d: %d slots, want %d", round, len(slots), maxPrefixes)
		}
		for i, s := range slots {
			if !bytes.HasPrefix(payloads[i], s) {
				t.Fatalf("round %d: slot %d no longer holds sender %d's prefix", round, i, i+1)
			}
		}
	}
}

// Bytes from a socket: every truncation fails, every flipped byte gives
// what a fresh decoder gives, nothing sticks — the next valid payload
// decodes, and garbage never earns a slot.
func TestCorruptPayloads(t *testing.T) {
	want := corrupted{Name: "intact", Leaves: []leaf{{"a", "b", "c"}, {Name: "d"}}, Tags: []string{"t1", "t2"}, N: 1 << 40}
	valid := FreshEncode(t, want)
	checkValid := func(when string) {
		t.Helper()
		var got corrupted
		if err := Decode(valid, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("valid payload after %s: %+v, %v", when, got, err)
		}
	}
	checkValid("nothing")
	cut, ok := split(valid)
	if !ok || cut == 0 {
		t.Fatal("valid payload does not split")
	}
	for n := 0; n < len(valid); n++ {
		var got corrupted
		if err := Decode(valid[:n], &got); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded: %+v", n, len(valid), got)
		}
		checkValid(fmt.Sprintf("truncation to %d", n))
	}
	for i := range valid {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			bad := bytes.Clone(valid)
			bad[i] ^= mask
			var viaCodec, viaGob corrupted
			errGob := gob.NewDecoder(bytes.NewReader(bad)).Decode(&viaGob)
			errCodec := Decode(bad, &viaCodec)
			if (errGob == nil) != (errCodec == nil) {
				t.Fatalf("byte %d ^ %#x: codec %v, fresh decoder %v", i, mask, errCodec, errGob)
			}
			if errGob == nil && !reflect.DeepEqual(viaCodec, viaGob) {
				t.Fatalf("byte %d ^ %#x: codec %+v, fresh decoder %+v", i, mask, viaCodec, viaGob)
			}
			if errGob != nil && errCodec.Error() != errGob.Error() {
				t.Fatalf("byte %d ^ %#x: codec says %q, gob says %q", i, mask, errCodec, errGob)
			}
			checkValid(fmt.Sprintf("byte %d ^ %#x", i, mask))
		}
	}
	for _, s := range slotsOf(&corrupted{}) {
		var probe corrupted
		if err := gob.NewDecoder(bytes.NewReader(append(bytes.Clone(s), valid[cut:]...))).Decode(&probe); err != nil {
			t.Fatalf("a remembered prefix does not decode with the valid value behind it: %v", err)
		}
	}
}

// A decoder keeps its last message and an encoder its largest: neither is
// kept after a payload over maxPooled.
func TestLargePayloadLeavesNothingPooled(t *testing.T) {
	small := huge{Name: "small", Data: []byte{1}}
	big := huge{Name: "big", Data: bytes.Repeat([]byte{0xab}, 2<<20)}

	p, err := Encode(big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, FreshEncode(t, big)) {
		t.Fatal("2 MiB payload differs from a fresh encoder's")
	}
	et := encTypeOf(big)
	if et.pool.Get() != nil {
		t.Fatal("an encoder that wrote 2 MiB was kept")
	}
	before := len(slotsOf(&huge{})) // 0, or 1 under -count=2
	var got huge
	if err := Decode(p, &got); err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("2 MiB decode: %v", err)
	}
	if n := len(slotsOf(&huge{})); n != before {
		t.Fatalf("2 MiB decode took a slot (%d -> %d)", before, n)
	}

	// Primed codecs meet a large value: they are dropped, not returned.
	if _, err := Encode(small); err != nil {
		t.Fatal(err)
	}
	if p2, err := Encode(big); err != nil || !bytes.Equal(p2, p) {
		t.Fatalf("2 MiB through a primed encoder: equal=%v err=%v", bytes.Equal(p2, p), err)
	}
	if et.pool.Get() != nil {
		t.Fatal("a primed encoder that wrote 2 MiB went back to the pool")
	}
	ps := FreshEncode(t, small)
	for i := 0; i < 2; i++ {
		if err := Decode(ps, &got); err != nil {
			t.Fatal(err)
		}
	}
	if err := Decode(p, &got); err != nil || len(got.Data) != 2<<20 {
		t.Fatalf("2 MiB decode beside a primed decoder: %v", err)
	}
	slots := slotsOf(&huge{})
	if len(slots) != 1 {
		t.Fatalf("%d slots, want 1", len(slots))
	}
	dt := decTypeOf(&huge{})
	for d, _ := dt.slots[0].pool.Get().(*decoder); d != nil; d, _ = dt.slots[0].pool.Get().(*decoder) {
		if d.r.Len() != 0 || d.r.Size() != 0 {
			t.Fatal("a pooled decoder still references a payload")
		}
	}
}

func TestSplit(t *testing.T) {
	valid := FreshEncode(t, leaf{Name: "x"})
	cut, ok := split(valid)
	if !ok || cut == 0 || cut >= len(valid) {
		t.Fatalf("split(valid) = %d, %v", cut, ok)
	}
	if c, ok := split(valid[cut:]); !ok || c != 0 {
		t.Fatalf("a lone value message splits at %d, %v", c, ok)
	}
	for name, p := range map[string][]byte{
		"empty":                nil,
		"definitions only":     valid[:cut],
		"value then more":      append(bytes.Clone(valid), valid[cut:]...),
		"value in the middle":  append(bytes.Clone(valid[cut:]), valid...),
		"trailing byte":        append(bytes.Clone(valid), 0),
		"zero-length message":  {0},
		"count overruns":       {0x10, 0x01},
		"count of 9 bytes":     {0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"count wraps int":      {0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"no room for the id":   {0x01, 0xfe},
		"truncated long count": {0xfe, 0x01},
	} {
		if cut, ok := split(p); ok {
			t.Errorf("%s: split = %d, true", name, cut)
		}
	}
	// Every gob payload a fresh encoder writes for the byte cases splits,
	// and the value message is the last thing the encoder wrote.
	for name, v := range byteCases() {
		var w writeLog
		if err := gob.NewEncoder(&w).Encode(v); err != nil {
			t.Fatal(err)
		}
		cut, ok := split(w.all)
		if !ok || cut != w.lastStart {
			t.Errorf("%s: split = %d, %v; the encoder's last write began at %d", name, cut, ok, w.lastStart)
		}
	}
}

// writeLog records where the last Write began; gob writes one message per
// call.
type writeLog struct {
	all       []byte
	lastStart int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.lastStart = len(w.all)
	w.all = append(w.all, p...)
	return len(p), nil
}
