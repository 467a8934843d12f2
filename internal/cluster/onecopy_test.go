package cluster

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mdagent/internal/owl"
	"mdagent/internal/rdf"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// storeContents reads every key of a closed store directory and its value.
func storeContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	out := make(map[string]string)
	for _, k := range db.Keys("") {
		v, err := db.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = string(v)
	}
	return out
}

// assertOneCopy fails unless every key of the closed store directory is
// replication state: fed/ records and the fedchain/ frames they name.
func assertOneCopy(t *testing.T, dir string) {
	t.Helper()
	var stray []string
	for k := range storeContents(t, dir) {
		if !strings.HasPrefix(k, fedKeyPrefix) && !strings.HasPrefix(k, chainKeyPrefix) {
			stray = append(stray, k)
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Fatalf("the store holds keys outside %s and %s: %v", fedKeyPrefix, chainKeyPrefix, stray)
	}
}

// TestStoreHoldsOneCopyPerRecord: a center writing every record kind, a
// follow-me commit and a tombstone leaves nothing in its store but the
// replication table — no registry-layout copy of any record.
func TestStoreHoldsOneCopyPerRecord(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	dir := t.TempDir()
	c := openDiskCenter(t, fab, dir, "lab", testConfig())
	ctx := context.Background()
	for _, host := range []string{"hostA", "hostC"} {
		if err := c.RegisterApp(ctx, registry.AppRecord{Name: "player", Host: host, Description: appDesc("player"), Running: host == "hostA"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.MoveApp(ctx, registry.AppRecord{Name: "player", Host: "hostB", Description: appDesc("player")}, "hostA"); err != nil {
		t.Fatal(err)
	}
	if err := c.UnregisterApp(ctx, "player", "hostC"); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterResource(ctx, owl.Resource{ID: "song1", Class: rdf.IMCL("MusicFile"), Host: "hostA"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "hostA", MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBundle(ctx, "player", []byte("bundle bytes")); err != nil {
		t.Fatal(err)
	}
	mustPut(t, c.Center, mustSnapshot(t, "player", "hostB", "0"))
	c.close()
	assertOneCopy(t, dir)
}

// TestStandaloneCenterSurvivesRestart: a center with no peers — the
// standalone registry — serves the same reads after a restart over its
// store: app records, resources, device profiles and bundles.
func TestStandaloneCenterSurvivesRestart(t *testing.T) {
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, t.TempDir(), "", testConfig())
	ctx := context.Background()
	if err := c.RegisterApp(ctx, registry.AppRecord{Name: "player", Host: "hostA", Description: appDesc("player")}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterResource(ctx, owl.Resource{ID: "prn", Class: rdf.IMCL("Printer"), Host: "hostA", Substitutable: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "hostA", MemoryMB: 256}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutBundle(ctx, "player", []byte("bundle bytes")); err != nil {
		t.Fatal(err)
	}
	c.reopen(nil)

	if _, found, _ := c.LookupApp(ctx, "player", "hostA"); !found {
		t.Fatal("app lost across restart")
	}
	if res := c.ResourcesOnHost("hostA"); len(res) != 1 {
		t.Fatalf("resources lost across restart: %v", res)
	}
	if dev, ok := c.Device("hostA"); !ok || dev.MemoryMB != 256 {
		t.Fatalf("device after restart = %+v, %v", dev, ok)
	}
	if raw, found, err := c.GetBundle(ctx, "player"); err != nil || !found || string(raw) != "bundle bytes" {
		t.Fatalf("bundle after restart = %q, %v, %v", raw, found, err)
	}
}

// dirFiles reads every file of a flat store directory.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

// assertLayoutRefused opens a center over the closed store directory dir
// and checks that NewCenter fails with store.ErrLayout, names the commit
// that converts the layout, and leaves every file of dir as it was.
func assertLayoutRefused(t *testing.T, dir, space string) {
	t.Helper()
	before := dirFiles(t, dir)
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(nil)
	defer fab.Close()
	ep, err := fab.Attach(CenterEndpointName(space), "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCenter(space, db, ep, testConfig())
	if cerr := db.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err == nil {
		c.Stop()
		t.Fatal("NewCenter over a retired layout succeeded")
	}
	if !errors.Is(err, store.ErrLayout) || !strings.Contains(err.Error(), "3a28188") {
		t.Fatalf("NewCenter = %v, want store.ErrLayout naming 3a28188", err)
	}
	if after := dirFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("a refused open changed the store's files")
	}
}

// TestTornMirrorNeverDisagreesAfterReopen: the layout that kept a second,
// registry-layout copy of each record wrote fed/<key> first and <key>
// second, so a log cut between the two left a demoted replication record
// beside a mirror still saying the app runs. That layout is refused
// whole, so no center ever serves from a torn mirror.
func TestTornMirrorNeverDisagreesAfterReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := registry.AppRecord{Name: "player", Host: "hostA", Space: "lab", Description: appDesc("player")}
	demoted := Record{Key: rec.Key(), Kind: RecordApp, App: rec, Version: vclock.Version{"lab": 2}, Origin: "lab"}
	rec.Running = true
	for k, v := range map[string]any{fedKeyPrefix + rec.Key(): demoted, rec.Key(): rec} {
		if err := db.Put(k, transport.MustEncode(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	assertLayoutRefused(t, dir, "lab")
}

// TestParentStoresOpen: the store directories under testdata/parent-stores
// were written by the layout that kept a registry-layout copy of every
// record (testdata/parent-stores/gen_test.go): a federated center's, with
// both copies, and a standalone registry's, with only the registry copy.
// The store converts their blob log, the one retired layout it still
// reads; the center then refuses the registry layout and writes nothing.
func TestParentStoresOpen(t *testing.T) {
	for kind, space := range map[string]string{"federated": "lab", "standalone": ""} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent-stores", kind))); err != nil {
				t.Fatal(err)
			}
			// Opening the store alone converts the blob log.
			if len(storeContents(t, dir)) == 0 {
				t.Fatal("the fixture holds no keys")
			}
			assertLayoutRefused(t, dir, space)
		})
	}
}
