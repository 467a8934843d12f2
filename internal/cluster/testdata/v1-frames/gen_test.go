package cluster

// This file records the store directory under testdata/v1-frames with
// the last build whose snapshot and delta frames were version 1 (a gob
// payload behind the MDST header). It compiles against that tree only
// (commit 9387257), so it lives under testdata, which the go tool skips.
// To re-record:
//
//	git archive 9387257 | tar -x -C /tmp/parent
//	cp internal/cluster/testdata/v1-frames/gen_test.go /tmp/parent/internal/cluster/
//	V1_FRAMES=$PWD/internal/cluster/testdata/v1-frames \
//	    go test -C /tmp/parent -run TestWriteV1FrameStore ./internal/cluster
//
// It writes store/ — the directory of center "alpha" holding the
// installation record of "player" on hostA and a snapshot chain of
// "player", a base and two deltas — and expected.json with what the
// center then served.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdagent/internal/registry"
	"mdagent/internal/transport"
)

type v1FramesServed struct {
	Player snapView
	Chain  []string
	App    registry.AppRecord
}

func TestWriteV1FrameStore(t *testing.T) {
	out := os.Getenv("V1_FRAMES")
	if out == "" {
		t.Skip("V1_FRAMES not set")
	}
	dir := filepath.Join(out, "store")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	d := openDiskCenter(t, fab, dir, "alpha", testConfig())
	rec := registry.AppRecord{Name: "player", Host: "hostA", Space: "alpha",
		Description: appDesc("player"), Components: []string{"st", "payload"}, Running: true}
	if err := d.RegisterApp(context.Background(), rec); err != nil {
		t.Fatal(err)
	}
	putChain(t, d.Center, "player", 2)
	served := v1FramesServed{Player: viewOf(t, d.Center, "player"), Chain: chainKeys(d.Center)}
	var found bool
	if served.App, found, _ = d.LookupApp(context.Background(), "player", "hostA"); !found {
		t.Fatal("the app record is not served")
	}
	d.close()
	js, err := json.MarshalIndent(served, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "expected.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
