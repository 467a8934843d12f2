package media

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/transport"
)

// FuzzServeLibrary: the media.fetch and media.meta handlers read gob
// payloads any peer may send a daemon. Any payload yields an error or a
// well-formed reply — a range of the file, or its true size and checksum
// — and never panics the handler's goroutine. Nothing is allocated in
// proportion to a count the payload merely claims: the bound is the
// payload and the served file.
func FuzzServeLibrary(f *testing.F) {
	for _, req := range []fetchReq{
		{Name: "song.mp3"},
		{Name: "song.mp3", Offset: 100, Length: 4096},
		{Name: "song.mp3", Offset: 1, Length: math.MaxInt64},
		{Name: "song.mp3", Offset: math.MaxInt64, Length: math.MaxInt64},
		{Name: "song.mp3", Offset: -1},
		{Name: "missing.mp3"},
	} {
		f.Add(false, transport.MustEncode(req))
		f.Add(true, transport.MustEncode(req))
	}
	good := transport.MustEncode(fetchReq{Name: "song.mp3", Offset: 7, Length: 9})
	f.Add(false, good[:len(good)/2])
	f.Add(false, append(good[:len(good):len(good)], 0xff, 0xff, 0xff, 0xff, 0x0f)) // trailing 4 GiB claim
	f.Add(true, []byte{})
	cli, lib := streamRig(f)
	song, _ := lib.Get("song.mp3")

	f.Fuzz(func(t *testing.T, meta bool, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		op := MsgFetch
		if meta {
			op = MsgMeta
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, err := cli.Request(ctx, "media@hostA", op, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)+4*len(song.Data)); got > limit {
			t.Fatalf("a %d-byte %s allocated %d (limit %d)", len(data), op, got, limit)
		}
		if err != nil {
			return
		}
		if meta {
			var m metaReply
			if err := transport.Decode(reply.Payload, &m); err != nil {
				t.Fatalf("meta reply does not decode: %v", err)
			}
			if m.Found && (m.Size != song.Size() || m.Checksum != song.Checksum) {
				t.Fatalf("meta reply %+v, the file has %d bytes, checksum %s", m, song.Size(), song.Checksum)
			}
			return
		}
		var r fetchReply
		if err := transport.Decode(reply.Payload, &r); err != nil {
			t.Fatalf("fetch reply does not decode: %v", err)
		}
		off := bytes.Index(song.Data, r.Data)
		if len(r.Data) > 0 && off < 0 {
			t.Fatalf("fetch reply of %d bytes is not a range of the file", len(r.Data))
		}
		if r.EOF && len(r.Data) > 0 && !bytes.HasSuffix(song.Data, r.Data) {
			t.Fatalf("fetch reply says EOF but its %d bytes do not end the file", len(r.Data))
		}
	})
}
