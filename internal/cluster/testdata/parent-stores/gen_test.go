package cluster

// This file records the store fixtures under testdata/parent-stores with
// the binary of the layout that kept two durable copies of every record:
// fed/<key> (the replication table) and <key> (the registry's own copy).
// It compiles against that tree only (commit ff03cf9), so it lives under
// testdata, which the go tool skips. To re-record:
//
//	git archive ff03cf9 | tar -x -C /tmp/parent
//	cp internal/cluster/testdata/parent-stores/gen_test.go /tmp/parent/internal/cluster/
//	PARENT_STORES=$PWD/internal/cluster/testdata/parent-stores \
//	    go test -C /tmp/parent -run TestWriteParentStores ./internal/cluster
//
// It writes two store directories — federated (a center of space "lab")
// and standalone (a bare registry) — each holding one app, one resource,
// one device and one bundle, and expected.json with what the writer then
// served. That store still kept its bundles in a blob log; the
// directories were then opened once with a build of commit 9387257, the
// last that converts a blob log, so they hold the one-log layout and the
// registry layout is the one retired thing in them:
//
//	git archive 9387257 | tar -x -C /tmp/converter
//	# in /tmp/converter/internal/store: a test that calls Open and Close
//	# on each of the two directories
//
// The conversion is deterministic (TestConversionIsDeterministic).

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

type parentServed struct {
	Apps      []registry.AppRecord
	Resources []owl.Resource // on host "hostA"
	Device    wsdl.DeviceProfile
	Bundles   []registry.BundleInfo
	BundleRaw []byte
	// Versions is the federated center's replication digest; empty for
	// the standalone registry, which kept none.
	Versions map[string]vclock.Version
}

func parentRecords() (registry.AppRecord, owl.Resource, wsdl.DeviceProfile, []byte) {
	rec := registry.AppRecord{
		Name: "player", Host: "hostA", Space: "lab",
		Description: appDesc("player"),
		Components:  []string{"main-ui", "codec-logic"}, Running: true,
	}
	res := owl.Resource{
		ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA", SizeBytes: 2 << 20,
		Attrs: map[string]string{"component": "song1"},
	}
	dev := wsdl.DeviceProfile{Host: "hostA", ScreenWidth: 1280, ScreenHeight: 1024, MemoryMB: 512, HasAudio: true, HasDisplay: true, Platform: "j2se"}
	return rec, res, dev, []byte("MDAB fixture bundle bytes, stored opaquely")
}

func TestWriteParentStores(t *testing.T) {
	out := os.Getenv("PARENT_STORES")
	if out == "" {
		t.Skip("PARENT_STORES not set")
	}
	ctx := context.Background()
	expected := map[string]parentServed{}
	for _, kind := range []string{"federated", "standalone"} {
		dir := filepath.Join(out, kind)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		db, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := registry.New(db)
		if err != nil {
			t.Fatal(err)
		}
		rec, res, dev, raw := parentRecords()
		served := parentServed{}
		if kind == "federated" {
			fab := transport.NewLocalFabric(nil)
			ep, err := fab.Attach(CenterEndpointName("lab"), "")
			if err != nil {
				t.Fatal(err)
			}
			c := NewCenter("lab", reg, ep, Config{})
			if err := c.RegisterApp(ctx, rec); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterResource(ctx, res); err != nil {
				t.Fatal(err)
			}
			if err := c.RegisterDevice(ctx, dev); err != nil {
				t.Fatal(err)
			}
			if err := c.PutBundle(ctx, "player", raw); err != nil {
				t.Fatal(err)
			}
			served.Versions = c.digest()
			fab.Close()
		} else {
			if err := reg.RegisterApp(rec); err != nil {
				t.Fatal(err)
			}
			if err := reg.RegisterResource(res); err != nil {
				t.Fatal(err)
			}
			if err := reg.RegisterDevice(dev); err != nil {
				t.Fatal(err)
			}
			if err := reg.PutBundle("player", raw); err != nil {
				t.Fatal(err)
			}
		}
		if served.Apps, err = reg.Apps(); err != nil {
			t.Fatal(err)
		}
		if served.Resources, err = reg.ResourcesOnHost("hostA"); err != nil {
			t.Fatal(err)
		}
		served.Device, _ = reg.Device("hostA")
		if served.Bundles, err = reg.Bundles(); err != nil {
			t.Fatal(err)
		}
		if served.BundleRaw, _, err = reg.GetBundle("player"); err != nil {
			t.Fatal(err)
		}
		expected[kind] = served
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	js, err := json.MarshalIndent(expected, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "expected.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
