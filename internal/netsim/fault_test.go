package netsim

import (
	"errors"
	"testing"
	"time"

	"mdagent/internal/vclock"
)

func TestHostDownBlocksTransfers(t *testing.T) {
	n, _ := newTestNet(t)
	if _, _, err := n.Transfer("h1", "h2", 1024); err != nil {
		t.Fatalf("transfer before fault: %v", err)
	}
	if err := n.SetHostDown("h2", true); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Transfer("h1", "h2", 1024); !errors.Is(err, ErrHostDown) {
		t.Fatalf("transfer to down host: err = %v, want ErrHostDown", err)
	}
	if _, _, err := n.Transfer("h2", "h1", 1024); !errors.Is(err, ErrHostDown) {
		t.Fatalf("transfer from down host: err = %v, want ErrHostDown", err)
	}
	// Loopback on the down host itself still works: only its network died.
	if _, _, err := n.Transfer("h2", "h2", 1024); err != nil {
		t.Fatalf("loopback on down host: %v", err)
	}
	if err := n.SetHostDown("h2", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.Transfer("h1", "h2", 1024); err != nil {
		t.Fatalf("transfer after repair: %v", err)
	}
}

func TestSetHostDownUnknownHost(t *testing.T) {
	n, _ := newTestNet(t)
	if err := n.SetHostDown("nope", true); err == nil {
		t.Fatal("SetHostDown(unknown) did not error")
	}
}

func TestPartitionSplitsAndHeals(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := New(clk)
	for _, id := range []string{"a1", "a2", "b1", "free"} {
		if _, err := n.AddHost(id, "lab", Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Partition([]string{"a1", "a2"}, []string{"b1"})

	if _, _, err := n.Transfer("a1", "a2", 64); err != nil {
		t.Fatalf("same-side transfer: %v", err)
	}
	if _, _, err := n.Transfer("a1", "b1", 64); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cross-partition transfer: err = %v, want ErrPartitioned", err)
	}
	// Hosts outside every group remain reachable from both sides.
	if _, _, err := n.Transfer("a1", "free", 64); err != nil {
		t.Fatalf("group->ungrouped transfer: %v", err)
	}
	if _, _, err := n.Transfer("b1", "free", 64); err != nil {
		t.Fatalf("other-group->ungrouped transfer: %v", err)
	}

	n.HealPartition()
	if _, _, err := n.Transfer("a1", "b1", 64); err != nil {
		t.Fatalf("transfer after heal: %v", err)
	}
}

func TestDownGatewayBlocksInterSpaceRoute(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := New(clk)
	if _, err := n.AddHost("h1", "sp1", Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddHost("h2", "sp2", PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGateway("gw1", "sp1", Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGateway("gw2", "sp2", Pentium4_1700()); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RouteBetween("h1", "h2"); err != nil {
		t.Fatalf("inter-space route before fault: %v", err)
	}
	if err := n.SetHostDown("gw1", true); err != nil {
		t.Fatal(err)
	}
	if _, err := n.RouteBetween("h1", "h2"); !errors.Is(err, ErrHostDown) {
		t.Fatalf("route through down gateway: err = %v, want ErrHostDown", err)
	}
}

func TestLinkDownBlocksOnlyThatPair(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := New(clk)
	for _, id := range []string{"h1", "h2", "h3"} {
		if _, err := n.AddHost(id, "lab", Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.SetLinkDown("h1", "h2", true)
	if _, _, err := n.Transfer("h1", "h2", 64); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("transfer over severed link: err = %v, want ErrLinkDown", err)
	}
	if _, _, err := n.Transfer("h2", "h1", 64); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("reverse transfer over severed link: err = %v, want ErrLinkDown", err)
	}
	// The rest of the mesh is untouched: both endpoints reach h3.
	if _, _, err := n.Transfer("h1", "h3", 64); err != nil {
		t.Fatalf("h1->h3 with h1-h2 severed: %v", err)
	}
	if _, _, err := n.Transfer("h3", "h2", 64); err != nil {
		t.Fatalf("h3->h2 with h1-h2 severed: %v", err)
	}
	n.SetLinkDown("h1", "h2", false)
	if _, _, err := n.Transfer("h1", "h2", 64); err != nil {
		t.Fatalf("transfer after restore: %v", err)
	}
}

func TestFlapTogglesAndStops(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	n := New(clk)
	for _, id := range []string{"h1", "h2"} {
		if _, err := n.AddHost(id, "lab", Pentium4_1700(), 0); err != nil {
			t.Fatal(err)
		}
	}
	linkDown := func() bool {
		_, _, err := n.Transfer("h1", "h2", 64)
		return errors.Is(err, ErrLinkDown)
	}
	stop := n.Flap("h1", "h2", time.Millisecond)
	// The schedule must produce both states within a generous window.
	sawDown, sawUp := false, false
	deadline := time.Now().Add(5 * time.Second)
	for !(sawDown && sawUp) {
		if linkDown() {
			sawDown = true
		} else if sawDown {
			sawUp = true
		}
		if time.Now().After(deadline) {
			t.Fatalf("flap never toggled (down=%v up-after-down=%v)", sawDown, sawUp)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Stop restores the link and is idempotent.
	stop()
	stop()
	if _, _, err := n.Transfer("h1", "h2", 64); err != nil {
		t.Fatalf("transfer after flap stop: %v", err)
	}
}
