package registry

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

func testDesc(name string) wsdl.Description {
	return wsdl.Description{
		Name: name,
		Services: []wsdl.Service{{
			Name: "svc",
			Ports: []wsdl.Port{{
				Name:       "p",
				Operations: []wsdl.Operation{{Name: "run"}},
			}},
		}},
		Requires: wsdl.Requirements{MinMemoryMB: 64},
	}
}

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var (
	goldenSong = owl.Resource{
		ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20,
		Attrs: map[string]string{"component": "song1", "checksum": "c0ffee"},
	}
	goldenPlanMove = planMoveReq{
		App: "player", DestHost: "hostB", Mode: owl.MatchSemantic,
		Resources: []owl.Resource{goldenSong},
	}
	goldenDesc = wsdl.Description{
		Name: "player", Provider: "lab", Version: "1.0", Doc: "follows its user",
		Services: []wsdl.Service{{Name: "playback", Ports: []wsdl.Port{
			{Name: "ctl", Operations: []wsdl.Operation{{Name: "play", Input: "track", Output: "ack"}, {Name: "pause"}}},
		}}},
		Requires:    wsdl.Requirements{MinScreenWidth: 320, MinScreenHeight: -1, MinMemoryMB: 64, NeedsAudio: true, Platform: "any"},
		Preferences: []wsdl.Preference{{Key: "handedness", Value: "left"}},
	}
	goldenMoveApp = moveAppReq{
		Rec: AppRecord{
			Name: "player", Host: "hostB", Space: "lab", Description: goldenDesc,
			Components: []string{"main-ui", "codec-logic"}, Running: true,
		},
		From: "hostA",
	}
	goldenPlan = MovePlan{
		Dest:      AppRecord{Name: "player", Host: "hostB", Description: testDesc("player"), Components: []string{"main-ui"}},
		DestFound: true,
		Rebindings: []owl.Rebinding{
			{Source: goldenSong, Action: owl.RebindRemote, Reason: "untransferable; played remotely"},
			{Source: owl.Resource{ID: "lj", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true},
				Action: owl.RebindUseLocal, Target: owl.Resource{ID: "cp", Class: rdf.IMCL("ColorPrinter"), Host: "hostB", Location: "room2"},
				Reason: "equivalent"},
		},
	}
)

// goldenLookup is the recorded lookup-app request (lookup-app-req.gob
// holds it as the build before sealed it) and goldenLookupReply its reply.
var (
	goldenLookup      = appKeyReq{Name: "player", Host: "hostB"}
	goldenLookupReply = lookupAppReply{Rec: goldenMoveApp.Rec, Found: true}
)

// goldenFrames are the six fast frames of the registry, each encoded
// from its recorded value.
func goldenFrames() map[string][]byte {
	return map[string][]byte{
		"plan-move-req.bin":    encodePlanMoveReq(goldenPlanMove),
		"plan-move-reply.bin":  encodeMovePlan(goldenPlan),
		"move-app-req.bin":     encodeMoveAppReq(goldenMoveApp),
		"move-app-reply.bin":   encodeMoveAppReply(true),
		"lookup-app-req.bin":   encodeLookupAppReq(goldenLookup),
		"lookup-app-reply.bin": encodeLookupAppReply(goldenLookupReply),
	}
}

// TestGoldenRequestBodies pins registry.plan-move, registry.move-app and
// registry.lookup-app, request and reply: each recorded frame is what
// today's encoder writes, byte for byte (maps in key order), and decodes
// to the recorded value. The builds before sealed each request as gob
// (the three .gob files): this build refuses them with ErrVersion, and
// those builds' Open refuses a fast frame the same way. A frame of
// another op, or a request read as a reply, names the opcode it does not
// serve.
func TestGoldenRequestBodies(t *testing.T) {
	pinned := func(t *testing.T, name string, frame []byte) []byte {
		t.Helper()
		golden := goldenWire(t, name)
		if !bytes.Equal(frame, golden) {
			t.Fatalf("%s: today's encoder writes\n%x\nthe recorded frame is\n%x", name, frame, golden)
		}
		if _, err := transport.Open(golden); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("%s: a sealed-gob reader's Open: err = %v, want ErrVersion", name, err)
		}
		return golden
	}
	unknownOp := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
			t.Fatalf("%s: err = %v, want ErrVersion naming the unknown fast opcode", what, err)
		}
	}
	t.Run("plan-move", func(t *testing.T) {
		req := pinned(t, "plan-move-req.bin", encodePlanMoveReq(goldenPlanMove))
		if q, err := decodePlanMoveReq(req); err != nil || !reflect.DeepEqual(q, goldenPlanMove) {
			t.Fatalf("request decodes to %+v (err %v)", q, err)
		}
		reply := pinned(t, "plan-move-reply.bin", encodeMovePlan(goldenPlan))
		if p, err := decodeMovePlan(reply); err != nil || !reflect.DeepEqual(p, goldenPlan) {
			t.Fatalf("reply decodes to %+v (err %v)", p, err)
		}
		if _, err := decodePlanMoveReq(goldenWire(t, "plan-move-req.gob")); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("sealed gob request: err = %v, want ErrVersion", err)
		}
		_, err := decodeMovePlan(req)
		unknownOp(t, "request read as the reply", err)
	})
	t.Run("move-app", func(t *testing.T) {
		req := pinned(t, "move-app-req.bin", encodeMoveAppReq(goldenMoveApp))
		if q, err := decodeMoveAppReq(req); err != nil || !reflect.DeepEqual(q, goldenMoveApp) {
			t.Fatalf("request decodes to %+v (err %v)", q, err)
		}
		reply := pinned(t, "move-app-reply.bin", encodeMoveAppReply(true))
		if d, err := decodeMoveAppReply(reply); err != nil || !d {
			t.Fatalf("reply decodes to %v (err %v)", d, err)
		}
		if _, err := decodeMoveAppReq(goldenWire(t, "move-app-req.gob")); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("sealed gob request: err = %v, want ErrVersion", err)
		}
		_, err := decodeMoveAppReq(goldenWire(t, "plan-move-req.bin"))
		unknownOp(t, "a plan-move request on move-app", err)
	})
	t.Run("lookup-app", func(t *testing.T) {
		req := pinned(t, "lookup-app-req.bin", encodeLookupAppReq(goldenLookup))
		if q, err := decodeLookupAppReq(req); err != nil || q != goldenLookup {
			t.Fatalf("request decodes to %+v (err %v)", q, err)
		}
		reply := pinned(t, "lookup-app-reply.bin", encodeLookupAppReply(goldenLookupReply))
		if p, err := decodeLookupAppReply(reply); err != nil || !reflect.DeepEqual(p, goldenLookupReply) {
			t.Fatalf("reply decodes to %+v (err %v)", p, err)
		}
		if p, err := decodeLookupAppReply(encodeLookupAppReply(lookupAppReply{})); err != nil || p.Found || p.Rec.Name != "" {
			t.Fatalf("a not-found reply decodes to %+v (err %v)", p, err)
		}
		if _, err := decodeLookupAppReq(goldenWire(t, "lookup-app-req.gob")); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("sealed gob request: err = %v, want ErrVersion", err)
		}
		_, err := decodeLookupAppReply(req)
		unknownOp(t, "request read as the reply", err)
		_, err = decodeLookupAppReq(goldenWire(t, "move-app-req.bin"))
		unknownOp(t, "a move-app request on lookup-app", err)
	})
}

// TestMoveFramesDecodeEmptyAsNil: an empty list or map decodes to nil, as
// gob decodes it, so a record reads the same whichever codec carried it.
func TestMoveFramesDecodeEmptyAsNil(t *testing.T) {
	q := goldenMoveApp
	q.Rec.Components = []string{}
	q.Rec.Description.Preferences = []wsdl.Preference{}
	got, err := decodeMoveAppReq(encodeMoveAppReq(q))
	if err != nil {
		t.Fatal(err)
	}
	if got.Rec.Components != nil || got.Rec.Description.Preferences != nil {
		t.Fatalf("empty lists decoded as %#v, %#v", got.Rec.Components, got.Rec.Description.Preferences)
	}
	res := goldenSong
	res.Attrs = map[string]string{}
	p, err := decodePlanMoveReq(encodePlanMoveReq(planMoveReq{Resources: []owl.Resource{res}}))
	if err != nil || p.Resources[0].Attrs != nil || p.App != "" {
		t.Fatalf("empty attrs decoded as %#v (err %v)", p.Resources[0].Attrs, err)
	}
}

// TestClaimedCountsAllocateInProportion: a count bounds the slice it
// sizes by its element's smallest encoding, and a list nested in another
// cannot count on the bytes held back for the outer list's unread
// elements. Each frame claims counts over a 1 MiB body of zeros, every
// field of which reads as empty; decoding it allocates the slice of the
// one count the bytes can hold (kept) and 64 KiB at most besides.
func TestClaimedCountsAllocateInProportion(t *testing.T) {
	const left = 1 << 20
	frame := func(op byte, head []byte, claims ...int) []byte {
		b := append([]byte{transport.ProtoV2, op}, head...)
		for i, c := range claims {
			if i > 0 {
				b = append(b, 0) // the outer element's name
			}
			b = transport.AppendUint(b, uint64(c))
		}
		return append(b, make([]byte, left)...)
	}
	planReq := func(b []byte) error { _, err := decodePlanMoveReq(b); return err }
	plan := func(b []byte) error { _, err := decodeMovePlan(b); return err }
	var (
		hosts    = make([]byte, 2)                                       // app, dest-host
		oneRes   = append(make([]byte, 2), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0) // one resource, up to its attrs
		recHead  = make([]byte, 9)                                       // a record, up to its services
		planHead = append(appendAppRecord(nil, &AppRecord{}), 0)         // a plan, up to its rebindings
		resSize  = int(unsafe.Sizeof(owl.Resource{}))
		rbSize   = int(unsafe.Sizeof(owl.Rebinding{}))
		svcSize  = int(unsafe.Sizeof(wsdl.Service{}))
	)
	for _, c := range []struct {
		name   string
		b      []byte
		decode func([]byte) error
		kept   int
	}{
		{"resources the body holds", frame(transport.OpPlanMove, hosts, left/minResource), planReq, left / minResource * resSize},
		{"a resource per byte", frame(transport.OpPlanMove, hosts, left), planReq, 0},
		{"attrs of one repeated key", frame(transport.OpPlanMove, oneRes, left/minPair), planReq, 0},
		{"rebindings the body holds", frame(transport.OpPlanMoveReply, planHead, left/minRebinding), plan, left / minRebinding * rbSize},
		{"services the body holds", frame(transport.OpPlanMoveReply, recHead, left/minService), plan, left / minService * svcSize},
		{"ports on bytes held for services", frame(transport.OpPlanMoveReply, recHead, left/4, left/2), plan, left / 4 * svcSize},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(c.b)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(c.kept+1<<16); got > limit {
			t.Errorf("%s: decoding %d bytes allocated %d (limit %d)", c.name, len(c.b), got, limit)
		}
		if err != nil && !errors.Is(err, transport.ErrBadFrame) {
			t.Errorf("%s: untyped error %v", c.name, err)
		}
	}
}

// FuzzMoveFrames: the plan-move, move-app and lookup-app decoders read
// what any peer sends a center, and what a center sends back. Any input
// yields a typed error (ErrVersion or ErrBadFrame) or a value that
// survives a re-encode/decode round trip; it never panics and allocates in
// proportion to the input, not to what its counts claim: a list's slice
// at most its element's size over its smallest encoding per byte (20 B
// for a wsdl.Service), a map of distinct one-byte keys about 48.
func FuzzMoveFrames(f *testing.F) {
	for i, name := range []string{"plan-move-req.bin", "plan-move-reply.bin", "move-app-req.bin", "move-app-reply.bin"} {
		g := goldenWire(f, name)
		f.Add(uint8(i), g)
		f.Add(uint8(i), g[:len(g)/2])
		f.Add(uint8(i), append(g[:2:2], 0xff, 0xff, 0xff, 0xff, 0x0f)) // a 4 GiB string or count claimed first
	}
	f.Add(uint8(0), goldenWire(f, "plan-move-req.gob"))
	f.Add(uint8(2), goldenWire(f, "move-app-req.gob"))
	f.Add(uint8(1), transport.AppendUint([]byte{transport.ProtoV2, transport.OpPlanMoveReply}, math.MaxUint64))
	for i, name := range []string{"lookup-app-req.bin", "lookup-app-reply.bin"} {
		g := goldenWire(f, name)
		f.Add(uint8(4+i), g)
		f.Add(uint8(4+i), g[:len(g)/2])
		f.Add(uint8(4+i), append(g[:2:2], 0xff, 0xff, 0xff, 0xff, 0x0f))
	}
	f.Add(uint8(4), goldenWire(f, "lookup-app-req.gob"))

	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		type codec struct {
			decode func([]byte) (any, error)
			encode func(any) []byte
		}
		codecs := []codec{
			{func(b []byte) (any, error) { return decodePlanMoveReq(b) }, func(v any) []byte { return encodePlanMoveReq(v.(planMoveReq)) }},
			{func(b []byte) (any, error) { return decodeMovePlan(b) }, func(v any) []byte { return encodeMovePlan(v.(MovePlan)) }},
			{func(b []byte) (any, error) { return decodeMoveAppReq(b) }, func(v any) []byte { return encodeMoveAppReq(v.(moveAppReq)) }},
			{func(b []byte) (any, error) { return decodeMoveAppReply(b) }, func(v any) []byte { return encodeMoveAppReply(v.(bool)) }},
			{func(b []byte) (any, error) { return decodeLookupAppReq(b) }, func(v any) []byte { return encodeLookupAppReq(v.(appKeyReq)) }},
			{func(b []byte) (any, error) { return decodeLookupAppReply(b) }, func(v any) []byte { return encodeLookupAppReply(v.(lookupAppReply)) }},
		}
		c := codecs[int(which)%len(codecs)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := c.decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, transport.ErrVersion) && !errors.Is(err, transport.ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		again, err := c.decode(c.encode(v))
		if err != nil || !reflect.DeepEqual(again, v) {
			t.Fatalf("round trip: %+v became %+v (err %v)", v, again, err)
		}
	})
}
