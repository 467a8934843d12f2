package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// blobLayout is a store directory an older binary wrote, with values in
// a sealed and in the active blob segment (testdata/blob-layout/gen_test.go
// records it and says how).
const blobLayout = "testdata/blob-layout"

// copyBlobLayout copies the fixture's store into a fresh directory named
// name and returns its path and the values the writer served.
func copyBlobLayout(t *testing.T, name string) (string, map[string][]byte) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(blobLayout, "store"))); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(blobLayout, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]byte
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// TestBlobLayoutIsRefused: a directory in the blob layout — as recorded,
// or with a blob segment damaged as a bad disk or a crash would leave it
// — fails Open with ErrLayout naming the last commit that converts it,
// and every file is left as it was. Open reads no blob segment: a
// damaged one is refused the same way.
func TestBlobLayoutIsRefused(t *testing.T) {
	for _, c := range []struct {
		name, seg, value string
		damage           func(raw, val []byte) []byte
	}{
		{name: "recorded"},
		{"flipped-sealed-segment", "blob-00000001.seg", "blob/sealed/1", func(raw, val []byte) []byte {
			raw[bytes.Index(raw, val)+len(val)/2] ^= 0xff
			return raw
		}},
		{"torn-active-segment", "blob-00000002.seg", "blob/active/2", func(raw, val []byte) []byte {
			return raw[:len(raw)-100]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, want := copyBlobLayout(t, c.name)
			if c.damage != nil {
				path := filepath.Join(dir, c.seg)
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(raw, want[c.value]) {
					t.Fatalf("%s does not hold %s's value", c.seg, c.value)
				}
				if err := os.WriteFile(path, c.damage(raw, want[c.value]), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			assertRefused(t, dir, dir)
			if _, err := Open(dir); !strings.Contains(fmt.Sprint(err), blobLogConverter) {
				t.Fatalf("Open = %v, want the refusal to name %s", err, blobLogConverter)
			}
		})
	}
}

// TestConversionIsDeterministic: compacting the same directory gives the
// same bytes every time — a pass re-emits the live values in the log's
// write order, not in the index map's. (The test is named for the
// blob-log conversion, whose one compaction pass it first pinned.)
func TestConversionIsDeterministic(t *testing.T) {
	src := filepath.Join(t.TempDir(), "log")
	s, err := Open(src, withSegmentBytes(4<<10), withCompactMinDead(-1))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 64; k++ {
		key := fmt.Sprintf("k/%02d", k*37%64)
		if err := s.Put(key, bytes.Repeat([]byte{byte(k)}, 100+k*7)); err != nil {
			t.Fatal(err)
		}
		if k%5 == 0 {
			if err := s.Put(key, []byte("overwritten")); err != nil {
				t.Fatal(err)
			}
		}
		if k%9 == 0 {
			if err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var first map[string][]byte
	for i := 0; i < 4; i++ {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("compact-deterministic-%d", i))
		if err := os.CopyFS(dir, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, withSegmentBytes(4<<10), withCompactMinDead(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range segs {
			if files[filepath.Base(p)], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if first == nil {
			first = files
			continue
		}
		if !maps.EqualFunc(files, first, bytes.Equal) {
			t.Fatalf("compaction %d wrote %v, compaction 0 wrote %v (same names, different bytes, or both)",
				i, slices.Sorted(maps.Keys(files)), slices.Sorted(maps.Keys(first)))
		}
	}
}
