package state

import (
	"fmt"
	"sort"

	"mdagent/internal/app"
	"mdagent/internal/transport"
)

// Version 3 is the layout of snapshot and delta frames: the raw-component
// layout of a version 2 wrap frame, with a meta of fast-frame fields
// (transport.Append*) in place of a gob value, so a restore decodes no
// gob and its components alias the frame.
//
//	header   MDST | 0x03 | kind | crc32(body)              10 bytes
//	body     uvarint(len(meta))
//	         meta   the kind's own fields:
//	                  snapshot: string tag, time at, uint change-seq
//	                  delta:    32-byte base digest
//	                then the wrap part:
//	                  string app, string from-host,
//	                  list of components (string name, int kind, uint size)
//	                    in name order,
//	                  coordinator state (list of string key, string value)
//	                    in key order,
//	                  string user, preferences (as coordinator state)
//	         components, raw, back to back in name order
//
// A list is a uvarint count, then its elements. An empty map reads as
// nil, as gob decodes one.

// Smallest encodings, in bytes, of a component entry (name, kind, size)
// and of a key/value pair: what a claimed count is bounded by.
const (
	minComponentEntry = 3
	minPair           = 2
)

// encodeV3 writes a version 3 frame of kind: the header, the meta — head
// (the kind's own fields), then w's wrap part — and w's components in
// name order, copied into the one frame.
func encodeV3(kind frameKind, head []byte, w *app.Wrap) []byte {
	names := make([]string, 0, len(w.Components))
	size := 0
	for n, b := range w.Components {
		names = append(names, n)
		size += len(b)
	}
	sort.Strings(names)
	meta := transport.AppendString(head, w.App)
	meta = transport.AppendString(meta, w.FromHost)
	meta = transport.AppendList(meta, names, func(b []byte, n string) []byte {
		b = transport.AppendString(b, n)
		b = transport.AppendInt(b, int64(w.Kinds[n]))
		return transport.AppendUint(b, uint64(len(w.Components[n])))
	})
	meta = appendPairs(meta, w.CoordState)
	meta = transport.AppendString(meta, w.Profile.User)
	meta = appendPairs(meta, w.Profile.Preferences)

	frame := appendHeader(make([]byte, 0, headerLen+10+len(meta)+size), frameV3, kind)
	frame = transport.AppendBytes(frame, meta)
	for _, n := range names {
		frame = append(frame, w.Components[n]...)
	}
	sealFrame(frame)
	return frame
}

// decodeV3 reads a version 3 body (its CRC already checked): head reads
// the kind's own fields, then the wrap part and the components follow.
// The components alias body, each capped at its own length so an append
// reallocates instead of growing into its neighbour; no length field of
// the frame sizes an allocation.
func decodeV3(body []byte, what string, head func(*transport.FastReader)) (app.Wrap, error) {
	bad := func(format string, args ...any) (app.Wrap, error) {
		return app.Wrap{}, fmt.Errorf("%w: %s frame: "+format, append([]any{ErrBadFrame, what}, args...)...)
	}
	br := transport.NewFastReader(body)
	meta := br.Bytes()
	rest := br.Rest()
	if br.Err() != nil {
		return bad("meta overruns the frame")
	}
	r := transport.NewFastReader(meta)
	head(r)
	var w app.Wrap
	w.App = r.String()
	w.FromHost = r.String()
	if n := r.Count(minComponentEntry); n > 0 {
		w.Components = make(map[string][]byte, n)
		w.Kinds = make(map[string]app.ComponentKind, n)
		prev := ""
		for i := range n {
			name := r.String()
			kind := app.ComponentKind(r.Int())
			size := r.Uint()
			if r.Err() != nil {
				break
			}
			if i > 0 && name <= prev {
				return bad("component %q out of order", name)
			}
			if size > uint64(len(rest)) {
				return bad("component %q claims %d bytes, %d remain", name, size, len(rest))
			}
			w.Components[name] = rest[:size:size]
			w.Kinds[name] = kind
			rest = rest[size:]
			prev = name
		}
	}
	w.CoordState = readPairs(r)
	w.Profile.User = r.String()
	w.Profile.Preferences = readPairs(r)
	if err := r.Err(); err != nil {
		return bad("%v", err)
	}
	if extra := len(r.Rest()); extra != 0 {
		return bad("%d bytes after the meta's last field", extra)
	}
	if len(rest) != 0 {
		return bad("%d bytes after the last component", len(rest))
	}
	return w, nil
}

// appendPairs appends m as a list of key/value pairs in key order.
func appendPairs(b []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return transport.AppendList(b, keys, func(b []byte, k string) []byte {
		return transport.AppendString(transport.AppendString(b, k), m[k])
	})
}

// readPairs reads appendPairs' layout; an empty list reads as nil.
func readPairs(r *transport.FastReader) map[string]string {
	n := r.Count(minPair)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for range n {
		k := r.String()
		m[k] = r.String()
	}
	return m
}
