package migrate

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/cluster"
	"mdagent/internal/netsim"
	"mdagent/internal/obs"
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

// The recorded check-ins. One entry per map: the state frame's gob parts
// write maps in random order and the frames should be reproducible.
var (
	goldenHead = checkinPayload{
		Budget: 59*time.Second + 250*time.Millisecond,
		App:    "player", Mode: FollowMe, Binding: BindingStatic,
		FromHost: "hostA", FromEngine: "migrate@hostA", TraceID: "t-0001",
		Desc: playerDesc(), Rebindings: []owl.Rebinding{{
			Source: owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 19,
				Attrs: map[string]string{"checksum": "c0ffee"}},
			Action: owl.RebindCarry, Reason: "transferable",
		}},
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
	goldenReply = checkinReply{
		ResumeNanos: 341_000_000,
		AdaptNotes:  []string{"player-ui: scaled to 1024x768"},
		RestoredApp: "player",
		Spans: []obs.Span{
			{Trace: "t-0001", App: "player", Phase: obs.PhaseRestore, Host: "hostB",
				Start: time.Unix(0, 1_500_000_000), Dur: 40 * time.Millisecond, Note: "delta=false"},
			{Trace: "t-0001", App: "player", Phase: obs.PhaseRebind, Host: "hostB",
				Start: time.Unix(0, 1_540_000_000), Dur: 590 * time.Millisecond, Note: "rebindings=1"},
		},
		SourceDemoted: true,
	}
)

// warmHead is the head of the recorded warm check-in.
func warmHead() checkinPayload {
	warm := goldenHead
	warm.Budget, warm.FromHost, warm.FromEngine, warm.TraceID, warm.Delta = 0, "hostB", "migrate@hostB", "t-0002", true
	return warm
}

// TestGoldenCheckinFrames pins the check-in and its reply. The head and
// the reply are fast-frame fields only, so each is what today's encoder
// writes, byte for byte. The state frame behind the head carries gob
// parts whose type ids a process assigns at first use, so it must decode
// to the recorded value and end in the raw component bytes; it need not
// re-encode to the same bytes. The check-ins of the retired opcodes 0x30
// and 0x31 are refused with ErrVersion.
func TestGoldenCheckinFrames(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		golden := goldenWire(t, "checkin-static.bin")
		if head := appendCheckinHead(nil, &goldenHead); !bytes.HasPrefix(golden, head) {
			t.Fatalf("the recorded head is not today's:\n%x\nwant prefix\n%x", golden, head)
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
	})
	t.Run("delta", func(t *testing.T) {
		golden := goldenWire(t, "checkin-delta.bin")
		warm := warmHead()
		if head := appendCheckinHead(nil, &warm); !bytes.HasPrefix(golden, head) {
			t.Fatalf("the recorded head is not today's:\n%x\nwant prefix\n%x", golden, head)
		}
		p, err := decodeCheckin(golden)
		if err != nil {
			t.Fatal(err)
		}
		frame := p.Frame
		p.Frame = nil
		if !reflect.DeepEqual(p, warm) {
			t.Fatalf("decoded head\n%+v\nwant\n%+v", p, warm)
		}
		d, err := state.DecodeDelta(frame)
		if err != nil || !reflect.DeepEqual(d, goldenDelta) {
			t.Fatalf("decoded delta %+v (err %v)", d, err)
		}
		if w, err := state.ApplyDelta(goldenWrap, d); err != nil || string(w.Components["song1"]) != "ID3-golden-song-2" ||
			string(w.Components["codec-logic"]) != "\x7fELF-golden-logic" {
			t.Fatalf("delta does not apply to the recorded base: %+v, %v", w, err)
		}
	})
	t.Run("reply", func(t *testing.T) {
		golden := goldenWire(t, "checkin-reply.bin")
		if now := encodeCheckinReply(&goldenReply); !bytes.Equal(now, golden) {
			t.Fatalf("today's encoder writes\n%x\nthe recorded reply is\n%x", now, golden)
		}
		if rep, err := decodeCheckinReply(golden); err != nil || !reflect.DeepEqual(rep, goldenReply) {
			t.Fatalf("decoded reply %+v (err %v)", rep, err)
		}
		// The gob reply of the build before is refused, typed.
		if _, err := decodeCheckinReply(transport.MustEncode(goldenReply)); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("a gob reply: err = %v, want ErrVersion", err)
		}
	})
	t.Run("retired", func(t *testing.T) {
		for _, name := range []string{"checkin-static-0x30.bin", "checkin-delta-0x30.bin", "checkin-static-0x31.bin", "checkin-delta-0x31.bin"} {
			golden := goldenWire(t, name)
			if golden[1] != 0x30 && golden[1] != 0x31 {
				t.Fatalf("%s: opcode %#x", name, golden[1])
			}
			if _, err := decodeCheckin(golden); !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
				t.Fatalf("%s: err = %v, want ErrVersion naming the unknown fast opcode", name, err)
			}
		}
	})
	t.Run("unknown", func(t *testing.T) {
		// A check-in of an opcode this build does not know — a newer
		// host's — is a version refusal too, named as ci/protocol-compat.sh
		// expects of an old destination.
		golden := bytes.Clone(goldenWire(t, "checkin-static.bin"))
		golden[1] = 0x3f
		_, err := decodeCheckin(golden)
		if !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
			t.Fatalf("opcode 0x3f: err = %v, want ErrVersion naming the unknown fast opcode", err)
		}
	})
}

// TestRetiredCheckinIsRefused: a host that registers the arrival and
// leaves the source to demote its own record sends opcode 0x30; the build
// before this one sends 0x31, its Desc and Rebindings a gob blob. Both
// arrival ops refuse either with the typed ErrVersion before the body is
// read: no instance, no registry write.
func TestRetiredCheckinIsRefused(t *testing.T) {
	r := newRig(t, songSize)
	before := r.reg.Apps(nil)
	for _, op := range []string{MsgCheckin, MsgClone} {
		for _, name := range []string{"checkin-static-0x30.bin", "checkin-static-0x31.bin", "checkin-delta-0x31.bin"} {
			_, err := r.engA.ep.Request(ctxT(t), EndpointName("hostB"), op, goldenWire(t, name))
			if !errors.Is(err, transport.ErrVersion) || !strings.Contains(err.Error(), "unknown fast opcode") {
				t.Fatalf("%s with %s: err = %v, want ErrVersion naming the unknown fast opcode", op, name, err)
			}
		}
	}
	if _, ok := r.engB.App("player"); ok {
		t.Fatal("a refused check-in left an instance behind")
	}
	if after := r.reg.Apps(nil); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused check-in wrote the registry: %+v", after)
	}
}

// gobSlack: see internal/state's FuzzDecodeWrap — what encoding/gob may
// allocate on lengths the gob blobs inside a state frame merely claim.
const gobSlack = 64 << 20

// FuzzDecodeCheckin: decodeCheckin, the frame decoder behind it and
// decodeCheckinReply are the only readers of what a peer engine sends.
// Any input yields a typed error (ErrVersion or ErrBadFrame) or a
// check-in or reply that survives a re-encode/decode round trip; it never
// panics, never allocates in proportion to a length the body merely
// claims (gobSlack aside, for the state frame's gob parts), and a good
// check-in still decodes afterwards.
func FuzzDecodeCheckin(f *testing.F) {
	static := goldenWire(f, "checkin-static.bin")
	delta := goldenWire(f, "checkin-delta.bin")
	reply := goldenWire(f, "checkin-reply.bin")
	for _, g := range [][]byte{static, delta, reply, goldenWire(f, "checkin-static-0x30.bin"), goldenWire(f, "checkin-static-0x31.bin"), goldenWire(f, "checkin-delta-0x31.bin")} {
		isReply := g[1] == transport.OpCheckinReply
		f.Add(isReply, g)
		f.Add(isReply, g[:len(g)/2])
		f.Add(isReply, g[:12])
		flipped := append([]byte(nil), g...)
		flipped[2] ^= 0x7f // the budget's (the resume time's) first byte
		f.Add(isReply, flipped)
	}
	f.Add(false, append([]byte{transport.ProtoV2, transport.OpCheckin}, 0xff, 0xff, 0xff, 0xff, 0x0f)) // 4 GiB budget claimed, then nothing
	huge := transport.AppendUint([]byte{transport.ProtoV2, transport.OpCheckin}, math.MaxUint64)
	f.Add(false, append(huge, static[2+len(transport.AppendUint(nil, uint64(goldenHead.Budget))):]...))   // a 2^64-1 ns budget on a good check-in
	f.Add(false, append([]byte{transport.ProtoV2, transport.OpCheckin, 0}, 0xff, 0xff, 0xff, 0xff, 0x0f)) // 4 GiB app name claimed
	f.Add(true, []byte{transport.ProtoV2, transport.OpCheckinReply, 0, 0xff, 0xff, 0xff, 0x0f})           // 33M adapt notes claimed
	// Rebindings claimed over a large frame: one per byte left, which no
	// rebinding's smallest encoding (22 bytes) fits, and the most that do.
	noPlans := goldenHead
	noPlans.Rebindings = nil
	head := appendCheckinHead(nil, &noPlans)
	head = head[:len(head)-2] // the empty rebindings count and the delta flag
	left := 1 + 1<<20         // the delta flag and a 1 MiB frame
	for _, claim := range []int{left, left / 22} {
		seed := transport.AppendUint(append([]byte(nil), head...), uint64(claim))
		f.Add(false, append(seed, make([]byte, left)...))
	}
	f.Add(false, transport.MustEncode(goldenHead)) // an older host's gob check-in
	f.Add(true, transport.MustEncode(goldenReply)) // an older host's gob reply
	f.Add(false, []byte{})

	f.Fuzz(func(t *testing.T, isReply bool, data []byte) {
		typed := func(err error) {
			if !errors.Is(err, transport.ErrVersion) && !errors.Is(err, transport.ErrBadFrame) {
				t.Fatalf("untyped error: %v", err)
			}
		}
		var before, after runtime.MemStats
		if isReply {
			runtime.ReadMemStats(&before)
			rep, err := decodeCheckinReply(data)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+16*len(data)); got > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
			}
			if err != nil {
				typed(err)
				return
			}
			if again, err := decodeCheckinReply(encodeCheckinReply(&rep)); err != nil || !reflect.DeepEqual(again, rep) {
				t.Fatalf("round trip: %+v became %+v (err %v)", rep, again, err)
			}
			return
		}
		runtime.ReadMemStats(&before)
		p, err := decodeCheckin(data)
		if err == nil && (p.Budget < 0 || p.Budget > restoreTimeout) {
			t.Fatalf("budget %v outside [0, %v]", p.Budget, restoreTimeout)
		}
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
		if err != nil {
			typed(err)
		} else if again, err := decodeCheckin(append(appendCheckinHead(nil, &p), p.Frame...)); err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip: %+v became %+v (err %v)", p, again, err)
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

// failingCatalog refuses to commit moves to one host.
type failingCatalog struct {
	*cluster.Center
	host string
}

func (c failingCatalog) MoveApp(ctx context.Context, rec registry.AppRecord, from string) (bool, error) {
	if rec.Host == c.host {
		return false, errors.New("registry unreachable")
	}
	return c.Center.MoveApp(ctx, rec, from)
}

// TestFailedCommitFailsTheMigration: registry.move-app is the migration's
// commit point, so a destination whose commit fails discards the arrival
// and fails the check-in. The source rolls back: the application runs
// there, and the registry still lists it running there and nowhere else.
func TestFailedCommitFailsTheMigration(t *testing.T) {
	r := newRig(t, songSize)
	inst := r.startPlayer(t, songSize)
	registerRunning(t, r.reg, "player", "hostA")
	r.engB.cat = failingCatalog{Center: r.reg, host: "hostB"}

	_, err := r.engA.FollowMe(ctxT(t), "player", "hostB", BindingAdaptive, owl.MatchSemantic)
	if err == nil || !strings.Contains(err.Error(), "registry unreachable") {
		t.Fatalf("FollowMe with a failing commit: err = %v", err)
	}
	if got, ok := r.engA.App("player"); !ok || got != inst || inst.State() != app.Running {
		t.Fatal("the application does not run at the source after the failed commit")
	}
	if _, ok := r.engB.App("player"); ok {
		t.Fatal("the destination kept the uncommitted arrival")
	}
	if got := runningHosts(t, r.reg, "player"); !reflect.DeepEqual(got, []string{"hostA"}) {
		t.Fatalf("registry lists the player running on %v, want [hostA]", got)
	}
}
