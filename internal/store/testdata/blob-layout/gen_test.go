package store

// This file records the store directory under testdata/blob-layout with
// the store that still routed values of its blob threshold and more to a
// separate blob log (blob-*.seg) and wrote a reference into the WAL. It
// compiles against that tree only (commit 865b513), so it lives under
// testdata, which the go tool skips. To re-record:
//
//	git archive 865b513 | tar -x -C /tmp/parent
//	cp internal/store/testdata/blob-layout/gen_test.go /tmp/parent/internal/store/
//	BLOB_LAYOUT=$PWD/internal/store/testdata/blob-layout \
//	    go test -C /tmp/parent -run TestWriteBlobLayout ./internal/store
//
// The threshold is shrunk to 256 B so the fixture stays small. It writes
// store/ — inline values, blob values in the sealed blob-00000001.seg and
// in the active blob-00000002.seg, one overwritten blob key and one
// deleted blob key — and expected.json with the live keys and values the
// writer then served. The second segment is what a roll of the blob log
// leaves, an empty next file, which the reopened store keeps appending
// to; segment 1 is then sealed.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// blobValue is a distinct value of n bytes, so a test can find its
// bytes in a blob segment.
func blobValue(key string, n int) []byte {
	return bytes.Repeat([]byte(key+"|"), n/(len(key)+1)+1)[:n]
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
	open := func() *Store {
		t.Helper()
		s, err := Open(dir, WithSyncPolicy(SyncAlways), withBlobThreshold(256))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	put := func(k string, v []byte) {
		t.Helper()
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// blob-00000001.seg: sealed/1, sealed/2, over (first value), gone.
	put("inline/a", []byte("alpha"))
	put("blob/sealed/1", blobValue("blob/sealed/1", 1000))
	put("blob/sealed/2", blobValue("blob/sealed/2", 1000))
	put("blob/over", blobValue("blob/over-v1", 1000))
	put("blob/gone", blobValue("blob/gone", 1000))
	put("inline/b", bytes.Repeat([]byte("b"), 100))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blob-00000002.seg"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s = open()
	// blob-00000002.seg (active): over (second value), active/1, active/2.
	put("blob/over", blobValue("blob/over-v2", 1000))
	put("blob/active/1", blobValue("blob/active/1", 1000))
	put("blob/active/2", blobValue("blob/active/2", 1000))
	if err := s.Delete("blob/gone"); err != nil {
		t.Fatal(err)
	}
	put("inline/a", []byte("alpha, again"))

	served := map[string][]byte{}
	if err := s.Scan("", func(k string, v []byte) error {
		served[k] = bytes.Clone(v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "blob-*.seg"))
	if len(segs) != 2 {
		t.Fatalf("blob segments = %v, want two", segs)
	}
	js, err := json.MarshalIndent(served, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(out, "expected.json"), append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
