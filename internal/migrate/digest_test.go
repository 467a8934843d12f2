package migrate

import (
	"testing"

	"mdagent/internal/obs"
	"mdagent/internal/owl"
)

// digestBytes reads mdagent_state_digest_bytes_total, the bytes fed to
// state.ComponentDigest in this process.
func digestBytes() int64 {
	return obs.Default.Counter("mdagent_state_digest_bytes_total").Value()
}

// TestColdHopHashesNothing: a cold static hop — the only kind a ring of
// three hosts makes — never reads a warm base's digest, so it hashes no
// byte of the 2 MB application on either side.
func TestColdHopHashesNothing(t *testing.T) {
	engines := tcpRing(t, "hostA", "hostB", "hostC")
	at, _ := hopRing(t, engines, 0, len(engines))
	before := digestBytes()
	_, rep := hopRing(t, engines, at, 2*len(engines))
	if got := digestBytes() - before; got != 0 {
		t.Fatalf("%d cold hops of a %d-byte frame hashed %d bytes, want 0", 2*len(engines), rep.BytesMoved, got)
	}
}

// TestWarmPingPongHashesOnlyChanges: once both ends of a ping-pong hold
// a base whose component digests they carry, a warm hop re-hashes only
// the components it changed — under 1 % of the wrap — where hashing the
// base again would be four full wraps per hop (the sender's digest and
// its post-hop apply, the receiver's digest and its apply).
func TestWarmPingPongHashesOnlyChanges(t *testing.T) {
	r := warmRig(t)
	ctx := ctxT(t)
	engines := []*Engine{r.engA, r.engB}
	cold, err := r.engA.FollowMe(ctx, "player", "hostB", BindingStatic, owl.MatchSemantic)
	if err != nil {
		t.Fatal(err)
	}
	for leg := 1; leg <= 5; leg++ {
		from, to := engines[leg%2], engines[(leg+1)%2]
		inst, ok := from.App("player")
		if !ok {
			t.Fatalf("leg %d: player not on %s", leg, from.Host())
		}
		mutatePlayback(t, inst, string(rune('0'+leg))+"000")
		before := digestBytes()
		rep, err := from.FollowMe(ctx, "player", to.Host(), BindingStatic, owl.MatchSemantic)
		if err != nil {
			t.Fatalf("leg %d: %v", leg, err)
		}
		hashed := digestBytes() - before
		if !rep.Delta {
			t.Fatalf("leg %d did not go warm", leg)
		}
		// Leg 1 is each side's first warm use of the base the cold leg
		// left, so it hashes that base once per side.
		if leg >= 2 && hashed*100 >= cold.BytesMoved {
			t.Fatalf("leg %d hashed %d bytes, not under 1%% of the %d-byte wrap", leg, hashed, cold.BytesMoved)
		}
		t.Logf("leg %d: %d bytes hashed (wrap %d)", leg, hashed, cold.BytesMoved)
	}
}
