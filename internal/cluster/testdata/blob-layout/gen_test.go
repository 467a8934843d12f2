package cluster

// This file records the store directory under testdata/blob-layout with
// the store that still routed values of 64 KiB and more to a separate
// blob log (blob-*.seg) and wrote a checksummed reference into the WAL.
// It compiles against that tree only (commit 865b513), so it lives under
// testdata, which the go tool skips. To re-record:
//
//	git archive 865b513 | tar -x -C /tmp/parent
//	cp internal/cluster/testdata/blob-layout/gen_test.go /tmp/parent/internal/cluster/
//	BLOB_LAYOUT=$PWD/internal/cluster/testdata/blob-layout \
//	    go test -C /tmp/parent -run TestWriteBlobLayout ./internal/cluster
//
// It writes store/ — the directory of center "alpha" holding a 70 KiB
// bundle "editor" (in the blob log) and a snapshot chain of "player", a
// base and two deltas — and expected.json with the player record and
// the chain keys the center then served.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mdagent/internal/transport"
)

type blobLayoutServed struct {
	Player snapView
	Chain  []string
}

func TestWriteBlobLayout(t *testing.T) {
	out := os.Getenv("BLOB_LAYOUT")
	if out == "" {
		t.Skip("BLOB_LAYOUT not set")
	}
	dir := filepath.Join(out, "store")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	d := openDiskCenter(t, fab, dir, "alpha", testConfig())
	if err := d.PutBundle(context.Background(), "editor", bytes.Repeat([]byte("b"), 70<<10)); err != nil {
		t.Fatal(err)
	}
	putChain(t, d.Center, "player", 2)
	served := blobLayoutServed{Player: viewOf(t, d.Center, "player"), Chain: chainKeys(d.Center)}
	d.close()
	blobs, _ := filepath.Glob(filepath.Join(dir, "blob-*.seg"))
	if len(blobs) != 1 {
		t.Fatalf("blob segments = %v, want one", blobs)
	}
	js, err := json.MarshalIndent(served, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "expected.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
