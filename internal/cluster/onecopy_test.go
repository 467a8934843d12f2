package cluster

import (
	"context"
	"encoding/json"
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
// store: records, the rebuilt ontology, device profiles and bundles.
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
	res, err := c.Registry().ResourcesOnHost("hostA")
	if err != nil || len(res) != 1 {
		t.Fatalf("resources lost across restart: %v, %v", res, err)
	}
	if dev, ok := c.Registry().Device("hostA"); !ok || dev.MemoryMB != 256 {
		t.Fatalf("device after restart = %+v, %v", dev, ok)
	}
	// The ontology is rebuilt: a semantic query works after the restart.
	rows, err := c.Registry().Query(`(?r rdf:type imcl:Printer)`)
	if err != nil || len(rows) != 1 {
		t.Fatalf("ontology not rebuilt: %v, %v", rows, err)
	}
	if raw, found, err := c.GetBundle(ctx, "player"); err != nil || !found || string(raw) != "bundle bytes" {
		t.Fatalf("bundle after restart = %q, %v, %v", raw, found, err)
	}
}

// TestTornMirrorNeverDisagreesAfterReopen: the layout that kept a second,
// registry-layout copy of each record wrote fed/<key> first and <key>
// second. A log cut between the two leaves a demoted replication record
// beside a mirror still saying the app runs. The reopened center answers
// every read — the lookup, failover's per-host listing, what anti-entropy
// offers a peer — from the replication record, and the stale mirror goes.
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

	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	c := openDiskCenter(t, fab, dir, "lab", testConfig())
	got, found, err := c.LookupApp(context.Background(), "player", "hostA")
	if err != nil || !found {
		t.Fatalf("LookupApp = %v, %v", found, err)
	}
	if got.Running {
		t.Fatal("replication table Running=false, registry LookupApp Running=true")
	}
	onHost, err := c.Registry().AppsOnHost("hostA")
	if err != nil || len(onHost) != 1 || onHost[0].Running {
		t.Fatalf("AppsOnHost (failover's read) = %+v, %v; want one record, not running", onHost, err)
	}
	offered := c.missingFor(nil)
	if len(offered) != 1 || offered[0].App.Running || !reflect.DeepEqual(offered[0].Version, demoted.Version) {
		t.Fatalf("anti-entropy offers %+v, want the demoted record at %v", offered, demoted.Version)
	}
	c.close()
	assertOneCopy(t, dir)
}

// servedView is what a center serves of the parent-store fixtures'
// records; expected.json holds what the writer of the fixtures served.
type servedView struct {
	Apps      []registry.AppRecord
	Resources []owl.Resource
	Device    wsdl.DeviceProfile
	Bundles   []registry.BundleInfo
	BundleRaw []byte
	Versions  map[string]vclock.Version
}

// TestParentStoresOpen: the store directories under testdata/parent-stores
// were written by the layout that kept a registry-layout copy of every
// record (testdata/parent-stores/gen_test.go): a federated center's, with
// both copies, and a standalone registry's, with only the registry copy.
// A center opened over either serves what the writer served — the
// federated one at the same version vectors — and leaves nothing in the
// store but the replication table; opening it again changes nothing.
func TestParentStoresOpen(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-stores", "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var expected map[string]servedView
	if err := json.Unmarshal(raw, &expected); err != nil {
		t.Fatal(err)
	}
	for kind, space := range map[string]string{"federated": "lab", "standalone": ""} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "parent-stores", kind))); err != nil {
				t.Fatal(err)
			}
			fab := transport.NewLocalFabric(nil)
			t.Cleanup(func() { fab.Close() })
			c := openDiskCenter(t, fab, dir, space, testConfig())
			ctx := context.Background()
			var got servedView
			if got.Apps, err = c.Registry().Apps(); err != nil {
				t.Fatal(err)
			}
			if got.Resources, err = c.Registry().ResourcesOnHost("hostA"); err != nil {
				t.Fatal(err)
			}
			got.Device, _ = c.Registry().Device("hostA")
			if got.Bundles, err = c.Bundles(ctx); err != nil {
				t.Fatal(err)
			}
			if got.BundleRaw, _, err = c.GetBundle(ctx, "player"); err != nil {
				t.Fatal(err)
			}
			want := expected[kind]
			if want.Versions != nil {
				got.Versions = c.digest()
			}
			gotJS, _ := json.Marshal(got)
			wantJS, _ := json.Marshal(want)
			if string(gotJS) != string(wantJS) {
				t.Fatalf("the center serves\n%s\nthe writer served\n%s", gotJS, wantJS)
			}
			c.close()
			assertOneCopy(t, dir)

			before := storeContents(t, dir)
			c.reopen(nil)
			c.close()
			if after := storeContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("a second open changed the store")
			}
		})
	}
}
