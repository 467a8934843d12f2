package media

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"mdagent/internal/transport"
)

// FuzzServeLibrary: the media.read handler reads what any peer may send
// a daemon. Any payload yields a typed error (ErrVersion, ErrBadFrame)
// or an unknown-file or out-of-range error, or a well-formed reply — the
// file's true size and checksum and a range of it — and never panics the
// handler's goroutine. Nothing is allocated in proportion to a length the
// payload merely claims: the bound is the payload and the served file.
func FuzzServeLibrary(f *testing.F) {
	for _, q := range []readReq{
		{Name: "song.mp3"},
		{Name: "song.mp3", Offset: 100, Length: 4096},
		{Name: "song.mp3", Offset: 1, Length: math.MaxUint64},
		{Name: "song.mp3", Offset: math.MaxUint64, Length: math.MaxUint64},
		{Name: "missing.mp3"},
	} {
		f.Add(encodeReadReq(q))
	}
	good := encodeReadReq(readReq{Name: "song.mp3", Offset: 7, Length: 9})
	for _, cut := range []int{1, 2, 3, len(good) / 2, len(good) - 1} {
		f.Add(good[:cut])
	}
	f.Add(append(good[:len(good):len(good)], 0xff))                                               // a trailing byte
	f.Add(encodeReadReq(readReq{Name: "song.mp3", Offset: 300_000}))                              // an open at the end
	f.Add(encodeReadReq(readReq{Name: "song.mp3", Offset: 300_001, Length: 1}))                   // one past the end
	f.Add(append([]byte{transport.ProtoV2, transport.OpMediaRead}, 0xff, 0xff, 0xff, 0xff, 0x0f)) // a 4 GiB name claimed
	f.Add(transport.MustEncode(struct{ Name string }{"song.mp3"}))                                // the retired gob body
	f.Add([]byte{})
	cli, lib := streamRig(f)
	song, _ := lib.Get("song.mp3")

	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply, err := cli.Request(ctx, "media@hostA", MsgRead, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(data)+2*len(song.Data)); got > limit {
			t.Fatalf("a %d-byte request allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, transport.ErrVersion) && !errors.Is(err, transport.ErrBadFrame) && !bytes.Contains([]byte(err.Error()), []byte("media: ")) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		r, err := decodeReadReply(reply.Payload)
		if err != nil {
			t.Fatalf("reply does not decode: %v", err)
		}
		if r.Size != uint64(song.Size()) || r.Checksum != song.Checksum {
			t.Fatalf("reply says %d bytes, checksum %s; the file has %d, %s", r.Size, r.Checksum, song.Size(), song.Checksum)
		}
		if len(r.Data) > 0 && bytes.Index(song.Data, r.Data) < 0 {
			t.Fatalf("reply of %d bytes is not a range of the file", len(r.Data))
		}
		if r.EOF && !bytes.HasSuffix(song.Data, r.Data) {
			t.Fatalf("reply says EOF but its %d bytes do not end the file", len(r.Data))
		}
	})
}
