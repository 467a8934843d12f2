package store

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
)

// The seed store kept one append-only gob log per store. Nothing writes
// that format any more; this file only reads it, so a pre-PR-8 log file
// still opens (Open migrates it into the engine's directory layout).

// legacy log op codes.
const (
	legacyOpPut    = "put"
	legacyOpDelete = "del"
)

// record is the seed store's gob frame (field-name compatible with
// every log written before PR 8).
type record struct {
	Op    string
	Key   string
	Value []byte
}

// replayLegacy applies every intact record of the seed-format log at
// path to into and returns the offset of the end of the last one. A
// torn or corrupt frame ends the replay at the last good record; a
// missing file is an empty log.
func replayLegacy(path string, into map[string][]byte) (int64, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: legacy replay: %w", err)
	}
	return scanFrames(raw, func(body []byte) bool {
		var r record
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&r); err != nil {
			return false
		}
		switch r.Op {
		case legacyOpPut:
			into[r.Key] = r.Value
		case legacyOpDelete:
			delete(into, r.Key)
		}
		return true
	}), nil
}

// migrateLegacyIfNeeded converts a seed-format log file at path into
// the engine's directory layout. Crash-safe: the legacy file is first
// parked at path+".legacy" (atomic rename), the converted segment is
// written and fsynced, and only then is the parked file removed — a
// crash at any point either retries the conversion or finds the
// directory already valid.
func migrateLegacyIfNeeded(path string) error {
	parked := path + ".legacy"
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		if err := os.Rename(path, parked); err != nil {
			return fmt.Errorf("store: park legacy log: %w", err)
		}
	} else if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: open: %w", err)
	}
	if _, err := os.Stat(parked); errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}

	data := make(map[string][]byte)
	if _, err := replayLegacy(parked, data); err != nil {
		return err
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return fmt.Errorf("store: migrate: %w", err)
	}
	// Replay seals an oversized first segment automatically.
	seg, err := os.OpenFile(path+"/"+segmentName(1), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: migrate: %w", err)
	}
	keys := make([]string, 0, len(data))
	for k := range data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(seg)
	for _, k := range keys {
		frame, _ := encodeInlineFrame(k, data[k])
		if _, err := bw.Write(frame); err != nil {
			seg.Close()
			return fmt.Errorf("store: migrate: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		seg.Close()
		return fmt.Errorf("store: migrate: %w", err)
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return fmt.Errorf("store: migrate: %w", err)
	}
	if err := seg.Close(); err != nil {
		return fmt.Errorf("store: migrate: %w", err)
	}
	if err := os.Remove(parked); err != nil {
		return fmt.Errorf("store: unpark legacy log: %w", err)
	}
	return nil
}
