package migrate

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mdagent/internal/app"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

func goldenWire(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// The recorded check-ins. One entry per map: gob writes maps in random
// order and the frames should be reproducible.
var (
	goldenHead = checkinPayload{
		App: "player", Mode: FollowMe, Binding: BindingStatic,
		FromHost: "hostA", FromEngine: "migrate@hostA", TraceID: "t-0001",
		checkinMeta: checkinMeta{Desc: playerDesc(), Rebindings: []owl.Rebinding{{
			Source: owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 19,
				Attrs: map[string]string{"checksum": "c0ffee"}},
			Action: owl.RebindCarry, Reason: "transferable",
		}}},
	}
	goldenWrap = app.Wrap{
		App: "player", FromHost: "hostA",
		Components: map[string][]byte{"codec-logic": []byte("\x7fELF-golden-logic"), "song1": []byte("ID3-golden-song\x00\xff")},
		Kinds:      map[string]app.ComponentKind{"codec-logic": app.KindLogic, "song1": app.KindData},
		CoordState: map[string]string{"track": "song1"},
		Profile:    app.UserProfile{User: "alice", Preferences: map[string]string{"handedness": "left"}},
	}
	goldenDelta = state.WrapDelta{
		App: "player", FromHost: "hostB", BaseDigest: state.WrapDigest(goldenWrap),
		Components: map[string][]byte{"song1": []byte("ID3-golden-song-2")},
		Kinds:      map[string]app.ComponentKind{"song1": app.KindData},
		CoordState: map[string]string{"track": "song2"},
		Profile:    goldenWrap.Profile,
	}
)

// goldenCheckins encodes the two recorded check-ins the way FollowMe
// does: the head, then the frame behind it in the same buffer.
func goldenCheckins(t testing.TB) (static, delta []byte) {
	t.Helper()
	head, err := appendCheckinHead(goldenHead)
	if err != nil {
		t.Fatal(err)
	}
	if static, err = state.AppendWrap(head, goldenWrap); err != nil {
		t.Fatal(err)
	}
	warm := goldenHead
	warm.FromHost, warm.FromEngine, warm.TraceID, warm.Delta = "hostB", "migrate@hostB", "t-0002", true
	if head, err = appendCheckinHead(warm); err != nil {
		t.Fatal(err)
	}
	frame, err := state.EncodeDelta(goldenDelta)
	if err != nil {
		t.Fatal(err)
	}
	return static, append(head, frame...)
}

// TestGoldenCheckinFrames pins the check-in body. Its two gob blobs (the
// Desc/Rebindings meta and the state frame's own) carry type ids a
// process assigns at first use, so a recorded frame must decode to the
// recorded value and hold its fixed-layout parts — the fast-frame head up
// to the meta, the raw component bytes at the end — where the layout
// says; it need not re-encode to the same bytes.
func TestGoldenCheckinFrames(t *testing.T) {
	prefix := []byte{transport.ProtoV2, transport.OpCheckin}
	prefix = transport.AppendString(prefix, "player")
	prefix = transport.AppendString(prefix, "")
	prefix = transport.AppendUint(prefix, uint64(FollowMe))
	prefix = transport.AppendUint(prefix, uint64(BindingStatic))
	prefix = transport.AppendString(prefix, "hostA")
	prefix = transport.AppendString(prefix, "migrate@hostA")
	prefix = transport.AppendString(prefix, "t-0001")

	t.Run("static", func(t *testing.T) {
		golden := goldenWire(t, "checkin-static.bin")
		if !bytes.HasPrefix(golden, prefix) {
			t.Fatalf("head is not the fast-frame layout:\n%x\nwant prefix\n%x", golden, prefix)
		}
		if !bytes.HasSuffix(golden, []byte("\x7fELF-golden-logic"+"ID3-golden-song\x00\xff")) {
			t.Fatalf("body does not end in the raw components:\n%x", golden)
		}
		p, err := decodeCheckin(golden)
		if err != nil {
			t.Fatal(err)
		}
		frame := p.Frame
		p.Frame = nil
		if !reflect.DeepEqual(p, goldenHead) {
			t.Fatalf("decoded head\n%+v\nwant\n%+v", p, goldenHead)
		}
		if w, err := state.DecodeWrap(frame); err != nil || !reflect.DeepEqual(w, goldenWrap) {
			t.Fatalf("decoded wrap %+v (err %v)", w, err)
		}
		if len(frame) == 0 || &frame[0] != &golden[len(golden)-len(frame)] {
			t.Fatal("the decoded frame does not alias the message it arrived in")
		}
		now, _ := goldenCheckins(t)
		if again, err := decodeCheckin(now); err != nil || !bytes.HasPrefix(now, prefix) || !bytes.Equal(again.Frame[:6], frame[:6]) {
			t.Fatalf("today's encoder writes another layout (err %v):\n%x", err, now)
		}
	})
	t.Run("delta", func(t *testing.T) {
		golden := goldenWire(t, "checkin-delta.bin")
		p, err := decodeCheckin(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Delta || p.FromHost != "hostB" || p.TraceID != "t-0002" || !reflect.DeepEqual(p.Rebindings, goldenHead.Rebindings) {
			t.Fatalf("decoded head %+v", p)
		}
		d, err := state.DecodeDelta(p.Frame)
		if err != nil || !reflect.DeepEqual(d, goldenDelta) {
			t.Fatalf("decoded delta %+v (err %v)", d, err)
		}
		if w, err := state.ApplyDelta(goldenWrap, d); err != nil || string(w.Components["song1"]) != "ID3-golden-song-2" ||
			string(w.Components["codec-logic"]) != "\x7fELF-golden-logic" {
			t.Fatalf("delta does not apply to the recorded base: %+v, %v", w, err)
		}
		_, now := goldenCheckins(t)
		if again, err := decodeCheckin(now); err != nil || !again.Delta || !bytes.Equal(again.Frame[:6], p.Frame[:6]) {
			t.Fatalf("today's encoder writes another layout (err %v):\n%x", err, now)
		}
	})
}

// gobSlack: see internal/state's FuzzDecodeWrap — what encoding/gob may
// allocate on lengths the gob blobs inside a frame merely claim.
const gobSlack = 64 << 20

// FuzzDecodeCheckin: decodeCheckin and the frame decoder behind it are
// the only readers of what a peer engine sends. Any input yields an error
// or a check-in whose head survives a re-encode/decode round trip; it
// never panics, never allocates in proportion to a length the body merely
// claims (gobSlack aside), and a good check-in still decodes afterwards.
func FuzzDecodeCheckin(f *testing.F) {
	static := goldenWire(f, "checkin-static.bin")
	delta := goldenWire(f, "checkin-delta.bin")
	for _, g := range [][]byte{static, delta} {
		f.Add(g)
		f.Add(g[:len(g)/2])
		f.Add(g[:12])
		flipped := append([]byte(nil), g...)
		flipped[2] ^= 0x7f // the app name's length
		f.Add(flipped)
	}
	f.Add(transport.SealFast(transport.OpCheckin, []byte{0xff, 0xff, 0xff, 0xff, 0x0f})) // 4 GiB app name claimed
	f.Add(transport.MustEncode(goldenHead))                                              // an older host's gob check-in
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := decodeCheckin(data)
		if err == nil {
			if p.Delta {
				_, _ = state.DecodeDelta(p.Frame)
			} else {
				_, _ = state.DecodeWrap(p.Frame)
			}
		}
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(gobSlack+16*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err == nil {
			// gob drops an empty slice or map that a crafted body can
			// spell out, so the structured part settles after one trip.
			roundTrip := func(p checkinPayload) checkinPayload {
				head, err := appendCheckinHead(p)
				if err != nil {
					t.Fatal(err)
				}
				again, err := decodeCheckin(append(head, p.Frame...))
				if err != nil {
					t.Fatalf("re-encoded check-in does not decode: %v\n%+v", err, p)
				}
				return again
			}
			once := roundTrip(p)
			flat, flatOnce := p, once
			flat.checkinMeta, flatOnce.checkinMeta = checkinMeta{}, checkinMeta{}
			if twice := roundTrip(once); !reflect.DeepEqual(flat, flatOnce) || !reflect.DeepEqual(once, twice) {
				t.Fatalf("round trip changed the check-in:\n%+v\n%+v\n%+v", p, once, twice)
			}
		}
		if good, err := decodeCheckin(static); err != nil || good.App != "player" || good.Delta {
			t.Fatalf("a good check-in no longer decodes: %+v, %v", good, err)
		}
	})
}

// gobCheckin is the check-in an older host sends: one gob value.
type gobCheckin struct {
	App      string
	Mode     Mode
	Binding  BindingMode
	WrapRaw  []byte
	Desc     wsdl.Description
	FromHost string
}

// TestGobCheckinIsRefused: each migrate op has one body encoding. The gob
// check-in of an older host is refused with the typed ErrVersion before
// its body is read, on both arrival ops, and nothing arrives.
func TestGobCheckinIsRefused(t *testing.T) {
	r := newRig(t, songSize)
	frame, err := state.EncodeWrap(goldenWrap)
	if err != nil {
		t.Fatal(err)
	}
	old := transport.MustEncode(gobCheckin{App: "player", Mode: FollowMe, Binding: BindingStatic,
		WrapRaw: frame, Desc: playerDesc(), FromHost: "hostA"})
	for _, op := range []string{MsgCheckin, MsgClone} {
		_, err := r.engA.ep.Request(ctxT(t), EndpointName("hostB"), op, old)
		if !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("%s with a gob body: err = %v, want ErrVersion", op, err)
		}
	}
	if _, ok := r.engB.App("player"); ok {
		t.Fatal("a refused check-in left an instance behind")
	}
}

// contentOf reads every component of an instance through Snapshot.
func contentOf(t *testing.T, inst *app.Application) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, n := range inst.Components() {
		c, _ := inst.Component(n)
		b, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		out[n] = append([]byte(nil), b...)
	}
	return out
}

// TestFailedCheckinRollsBackByteIdentical: the destination is a host of
// the previous generation — it gob-decodes the check-in and answers its
// decoder's error. The source must come back running with every byte it
// had, and the rollback point must not be disturbed by what it does next
// (the snapshot, the transfer view and the instance shared those bytes).
func TestFailedCheckinRollsBackByteIdentical(t *testing.T) {
	r := newRig(t, songSize)
	inst := r.startPlayer(t, songSize)
	if _, err := r.net.AddHost("hostC", "lab-space", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	if err := r.dir.AddHost("hostC", "lab-space"); err != nil {
		t.Fatal(err)
	}
	epC, err := r.fab.Attach(EndpointName("hostC"), "hostC")
	if err != nil {
		t.Fatal(err)
	}
	epC.Handle(MsgCheckin, func(tm transport.Message) ([]byte, error) {
		var p gobCheckin
		return nil, transport.Decode(tm.Payload, &p)
	})
	before := contentOf(t, inst)
	profile, coord := inst.Profile(), inst.Coordinator().State()

	_, err = r.engA.FollowMe(ctxT(t), "player", "hostC", BindingStatic, owl.MatchSemantic)
	if err == nil || !strings.Contains(err.Error(), "gob") {
		t.Fatalf("check-in at an old host: err = %v, want its gob decoder's error", err)
	}
	if got, ok := r.engA.App("player"); !ok || got != inst || inst.State() != app.Running {
		t.Fatalf("after the failed check-in: on hostA %v, state %v", ok, inst.State())
	}
	if after := contentOf(t, inst); !reflect.DeepEqual(after, before) {
		t.Fatal("rollback did not restore byte-identical components")
	}
	if !reflect.DeepEqual(inst.Profile(), profile) || !reflect.DeepEqual(inst.Coordinator().State(), coord) {
		t.Fatal("rollback changed the profile or the coordinator state")
	}

	// The instance moves on; the rollback point stays what it was.
	logic, _ := inst.Component("codec-logic")
	logic.(*app.BlobComponent).SetContent([]byte("hot-patched codec"))
	ts, ok := inst.Snapshots().Find("pre-migrate")
	if !ok || !bytes.Equal(ts.Wrap.Components["codec-logic"], before["codec-logic"]) {
		t.Fatal("a later SetContent reached into the pre-migrate snapshot")
	}
	// And it can still leave for a host that speaks the frame.
	if _, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingStatic, owl.MatchSemantic); err != nil {
		t.Fatal(err)
	}
	instB, _ := r.engB.App("player")
	if got := contentOf(t, instB); string(got["codec-logic"]) != "hot-patched codec" || !bytes.Equal(got["song1"], before["song1"]) {
		t.Fatal("the next migration did not carry the instance's current bytes")
	}
}

// TestCloneAndMasterDivergeIndependently: over LocalFabric the clone is
// restored from the very buffer the master's engine sent — one address
// space, no socket in between. Replacing a component on either side must
// not show through on the other.
func TestCloneAndMasterDivergeIndependently(t *testing.T) {
	r := newRig(t, songSize)
	master := r.startPlayer(t, songSize)
	rep, err := r.engA.CloneDispatch(ctxT(t), "player", "hostB", "player-room2", owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	clone, ok := r.engB.App("player-room2")
	if !ok {
		t.Fatal("clone missing at destination")
	}
	carriedLogic := false
	for _, n := range rep.Carried {
		carriedLogic = carriedLogic || n == "codec-logic"
	}
	if !carriedLogic {
		t.Fatalf("clone carried %v, want codec-logic among them", rep.Carried)
	}
	original := contentOf(t, master)["codec-logic"]
	blobOf := func(inst *app.Application) *app.BlobComponent {
		c, _ := inst.Component("codec-logic")
		return c.(*app.BlobComponent)
	}
	if got, _ := blobOf(clone).Snapshot(); !bytes.Equal(got, original) {
		t.Fatal("clone did not start from the master's bytes")
	}
	blobOf(master).SetContent([]byte("master v2"))
	if got, _ := blobOf(clone).Snapshot(); !bytes.Equal(got, original) {
		t.Fatal("the master's SetContent showed through on the clone")
	}
	blobOf(clone).SetContent([]byte("clone v2"))
	if got, _ := blobOf(master).Snapshot(); string(got) != "master v2" {
		t.Fatalf("the clone's SetContent showed through on the master: %q", got)
	}
	if got, _ := blobOf(clone).Snapshot(); string(got) != "clone v2" {
		t.Fatalf("clone holds %q", got)
	}
}

// TestWarmBaseSurvivesOnADecodedFrame: the wrap an engine caches as its
// warm-handoff base is the one DecodeWrap returned — windows onto the
// message the check-in arrived in, shared with the running instance.
// Deltas apply to it leg after leg, components are replaced on the way,
// and what arrives is always exactly what left.
func TestWarmBaseSurvivesOnADecodedFrame(t *testing.T) {
	r := warmRig(t)
	ctx := ctxT(t)
	engines := []*Engine{r.engA, r.engB}
	inst, _ := r.engA.App("player")
	for leg := 0; leg < 6; leg++ {
		from, to := engines[leg%2], engines[(leg+1)%2]
		mutatePlayback(t, inst, strings.Repeat("7", leg+1))
		if leg == 3 {
			logic, _ := inst.Component("codec-logic")
			logic.(*app.BlobComponent).SetContent(bytes.Repeat([]byte("v2"), 300<<10))
		}
		want := contentOf(t, inst)
		rep, err := from.FollowMe(ctx, "player", to.Host(), BindingStatic, owl.MatchSemantic)
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		if rep.Delta != (leg > 0) {
			t.Fatalf("leg %d: delta = %v", leg, rep.Delta)
		}
		var ok bool
		if inst, ok = to.App("player"); !ok {
			t.Fatalf("leg %d: player not on %s", leg, to.Host())
		}
		got := contentOf(t, inst)
		for n := range want {
			// A state component re-encodes its map in gob's random order.
			if n != "playback-state" && !bytes.Equal(got[n], want[n]) {
				t.Fatalf("leg %d: component %q arrived changed", leg, n)
			}
		}
		if pos := playbackPos(t, inst); pos != strings.Repeat("7", leg+1) {
			t.Fatalf("leg %d: position %q", leg, pos)
		}
	}
}

// failingCatalog refuses to register records of one host.
type failingCatalog struct {
	Direct
	host string
}

func (c failingCatalog) RegisterApp(ctx context.Context, rec registry.AppRecord) error {
	if rec.Host == c.host {
		return errors.New("registry unreachable")
	}
	return c.Direct.RegisterApp(ctx, rec)
}

// TestDestinationRegistrationFailureIsReported: the destination used to
// drop the error of its own RegisterApp, leaving the application running
// on a host the registry does not list, with nobody told. The application
// still resumes — it is already there — and the report says so, next to
// where the source's failed demotion would.
func TestDestinationRegistrationFailureIsReported(t *testing.T) {
	r := newRig(t, songSize)
	r.startPlayer(t, songSize)
	r.engB.cat = failingCatalog{Direct: Direct{R: r.reg}, host: "hostB"}

	rep, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	noted := false
	for _, n := range rep.AdaptNotes {
		noted = noted || strings.Contains(n, "destination record not registered: registry unreachable")
	}
	if !noted {
		t.Fatalf("AdaptNotes = %q, want the destination's registration failure", rep.AdaptNotes)
	}
	inst, ok := r.engB.App("player")
	if !ok || inst.State() != app.Running {
		t.Fatal("the application did not resume at the destination")
	}
	if rec, found, _ := r.reg.LookupApp("player", "hostB"); found && rec.Running {
		t.Fatal("the failing catalog registered the record after all")
	}
}
