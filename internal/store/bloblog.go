package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Stores written before every value lived in the WAL kept values of
// 64 KiB and more in a separate blob log — raw bytes in blob-%08d.seg
// files — and wrote an opPutBlob frame into the WAL that references
// them. Nothing writes that layout any more. This file only reads it:
// Open installs each referenced value while it replays, then converts
// the directory (convertBlobLayout).

// blobRef locates a value in an old blob log. The CRC covers the value
// bytes.
type blobRef struct {
	Seg uint64
	Off int64
	Len int64
	CRC uint32
}

func blobSegmentName(id uint64) string { return fmt.Sprintf("blob-%08d.seg", id) }

// blobLog is the read side of an old blob log, open for one replay.
type blobLog struct {
	dir   string
	paths []string                // the blob-*.seg files found at open
	segs  map[uint64]*blobSegment // opened on first reference; nil: unreadable
}

type blobSegment struct {
	f    *os.File
	size int64
}

func openBlobLog(dir string) (*blobLog, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "blob-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: scan blobs: %w", err)
	}
	return &blobLog{dir: dir, paths: paths, segs: make(map[uint64]*blobSegment)}, nil
}

// read returns a fresh copy of the referenced value. It reports false
// when the value cannot be read back whole: its segment is missing, the
// reference runs past the segment's end, or the bytes fail the
// reference's checksum. Every segment is checked, not only the newest:
// the value is read once, here, and then lives in the WAL.
func (b *blobLog) read(ref blobRef) ([]byte, bool) {
	seg, ok := b.segs[ref.Seg]
	if !ok {
		if f, err := os.Open(filepath.Join(b.dir, blobSegmentName(ref.Seg))); err == nil {
			if fi, err := f.Stat(); err == nil {
				seg = &blobSegment{f: f, size: fi.Size()}
			} else {
				f.Close()
			}
		}
		b.segs[ref.Seg] = seg
	}
	if seg == nil || ref.Off < 0 || ref.Len < 0 || ref.Off > seg.size || ref.Len > seg.size-ref.Off {
		return nil, false
	}
	buf := make([]byte, ref.Len)
	if _, err := seg.f.ReadAt(buf, ref.Off); err != nil || crc32.ChecksumIEEE(buf) != ref.CRC {
		return nil, false
	}
	return buf, true
}

func (b *blobLog) close() {
	for _, seg := range b.segs {
		if seg != nil {
			seg.f.Close()
		}
	}
}

// convertBlobLayout moves a directory off the blob layout once replay
// has installed every readable referenced value. One compaction pass
// re-puts every live value inline — those read from blob references
// among them — and syncs it before it unlinks the segments that held
// the references. Only then are the blob files removed, so a crash at
// any point before leaves them for the next Open to convert again.
func (s *Store) convertBlobLayout(paths []string) error {
	if err := s.Compact(); err != nil {
		return err
	}
	for _, p := range paths {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("store: remove blob segment: %w", err)
		}
	}
	return nil
}
