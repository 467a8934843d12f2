package registry_test

// The registry ops over the wire, served by the only server there is: a
// registry center (here one with no peers, the standalone shape).

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mdagent/internal/cluster"
	"mdagent/internal/netsim"
	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// serveCenter serves a registry center with no peers on ep.
func serveCenter(ep *transport.Endpoint) *cluster.Center {
	return cluster.NewCenter("", store.OpenMemory(), ep, cluster.Config{}).Serve(ep)
}

func desc(name string) wsdl.Description {
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

func goldenBody(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRemoteClientOverLocalFabric(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk)
	if _, err := net.AddHost("hostA", "lab", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("regHost", "lab", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(net)
	defer fab.Close()

	srvEp, err := fab.Attach("registry", "regHost")
	if err != nil {
		t.Fatal(err)
	}
	serveCenter(srvEp)

	cliEp, err := fab.Attach("agentA", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	cli := registry.NewClient(cliEp, "registry")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if err := cli.RegisterApp(ctx, registry.AppRecord{Name: "player", Host: "hostA", Description: desc("player")}); err != nil {
		t.Fatal(err)
	}
	rec, found, err := cli.LookupApp(ctx, "player", "hostA")
	if err != nil || !found || rec.Name != "player" {
		t.Fatalf("remote LookupApp = %+v, %v, %v", rec, found, err)
	}

	if err := cli.RegisterResource(ctx, owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}); err != nil {
		t.Fatal(err)
	}

	if err := cli.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "hostA", MemoryMB: 128}); err != nil {
		t.Fatal(err)
	}
	dev, ok, err := cli.Device(ctx, "hostA")
	if err != nil || !ok || dev.MemoryMB != 128 {
		t.Fatalf("remote Device = %+v, %v, %v", dev, ok, err)
	}

	prn := owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}
	plan, err := cli.PlanRebinding(ctx, prn, "hostA", owl.MatchSemantic)
	if err != nil || plan.Action != owl.RebindUseLocal {
		t.Fatalf("remote PlanRebinding = %+v, %v", plan, err)
	}
	mp, err := cli.PlanMove(ctx, "player", "hostA", []owl.Resource{prn, prn}, owl.MatchSemantic)
	if err != nil || !mp.DestFound || mp.Dest.Name != "player" || len(mp.Rebindings) != 2 || !reflect.DeepEqual(mp.Rebindings[1], plan) {
		t.Fatalf("remote PlanMove = %+v, %v", mp, err)
	}

	// The commit of a move hostA -> hostB: hostA's record demoted,
	// hostB's registered running, the source told it has nothing to do.
	if err := cli.RegisterApp(ctx, registry.AppRecord{Name: "player", Host: "hostA", Description: desc("player"), Running: true}); err != nil {
		t.Fatal(err)
	}
	demoted, err := cli.MoveApp(ctx, registry.AppRecord{Name: "player", Host: "hostB", Description: desc("player")}, "hostA")
	if err != nil || !demoted {
		t.Fatalf("remote MoveApp = %v, %v", demoted, err)
	}
	if a, _, _ := cli.LookupApp(ctx, "player", "hostA"); a.Running {
		t.Fatal("MoveApp left the source record running")
	}
	if b, found, _ := cli.LookupApp(ctx, "player", "hostB"); !found || !b.Running {
		t.Fatalf("MoveApp did not register the destination running: %+v", b)
	}
	if err := cli.UnregisterApp(ctx, "player", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := cli.LookupApp(ctx, "player", "hostA"); found {
		t.Fatal("app survived remote unregister")
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	defer fab.Close()
	srvEp, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	serveCenter(srvEp)
	cliEp, err := fab.Attach("cli", "")
	if err != nil {
		t.Fatal(err)
	}
	cli := registry.NewClient(cliEp, "registry")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.RegisterApp(ctx, registry.AppRecord{}); err == nil {
		t.Fatal("invalid app accepted remotely")
	}
	if _, err := cli.MoveApp(ctx, registry.AppRecord{Host: "hostB"}, "hostA"); err == nil {
		t.Fatal("nameless move accepted remotely")
	}
}

// TestMoveOpsRefuseAFutureSeal: both follow-me ops answer a request
// sealed with a version they do not speak with the typed ErrVersion, read
// nothing of its body and write nothing.
func TestMoveOpsRefuseAFutureSeal(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	defer fab.Close()
	srvEp, err := fab.Attach("registry", "")
	if err != nil {
		t.Fatal(err)
	}
	reg := serveCenter(srvEp).Registry()
	cliEp, err := fab.Attach("cli", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for op, golden := range map[string]string{registry.MsgPlanMove: "plan-move-req.gob", registry.MsgMoveApp: "move-app-req.gob"} {
		body, err := transport.Open(goldenBody(t, golden))
		if err != nil {
			t.Fatal(err)
		}
		future := transport.SealV(42, body)
		var req registry.MoveAppReq
		if err := transport.DecodeSealed(future, &req); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("%s: DecodeSealed of a v42 body: err = %v, want ErrVersion", op, err)
		}
		if _, err := cliEp.Request(ctx, "registry", op, future); !errors.Is(err, transport.ErrVersion) {
			t.Fatalf("%s with a v42 body: err = %v, want ErrVersion", op, err)
		}
	}
	if recs, _ := reg.Apps(); len(recs) != 0 {
		t.Fatalf("a refused move wrote %+v", recs)
	}
}
