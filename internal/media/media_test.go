package media

import (
	"context"
	"math"
	"testing"
	"time"

	"mdagent/internal/transport"
)

func TestGenerateFileDeterministicAndVerifies(t *testing.T) {
	a := GenerateFile("song.mp3", 1<<16, 3)
	b := GenerateFile("song.mp3", 1<<16, 3)
	if a.Checksum != b.Checksum {
		t.Fatal("same inputs produced different files")
	}
	if !a.Verify() {
		t.Fatal("fresh file fails verification")
	}
	a.Data[0] ^= 0xff
	if a.Verify() {
		t.Fatal("corrupted file verified")
	}
	c := GenerateFile("song.mp3", 1<<16, 4)
	if c.Checksum == b.Checksum {
		t.Fatal("different seeds produced identical files")
	}
	if c.Size() != 1<<16 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestURLRoundTrip(t *testing.T) {
	url := URL("hostA", "blue-danube.mp3")
	host, name, err := ParseURL(url)
	if err != nil || host != "hostA" || name != "blue-danube.mp3" {
		t.Fatalf("ParseURL = %q %q %v", host, name, err)
	}
	for _, bad := range []string{"http://x/y", "mdagent://hostonly", "mdagent:///media/x", "mdagent://h/media/"} {
		if _, _, err := ParseURL(bad); err == nil {
			t.Fatalf("ParseURL(%q) accepted", bad)
		}
	}
}

func TestLibrary(t *testing.T) {
	lib := NewLibrary("hostA")
	lib.Add(GenerateFile("b.mp3", 100, 1))
	lib.Add(GenerateFile("a.mp3", 100, 1))
	if !lib.Has("a.mp3") || lib.Has("zzz.mp3") {
		t.Fatal("Has wrong")
	}
	names := lib.Names()
	if len(names) != 2 || names[0] != "a.mp3" {
		t.Fatalf("Names = %v", names)
	}
	if lib.Host() != "hostA" {
		t.Fatal("Host wrong")
	}
}

func TestSlideDeck(t *testing.T) {
	deck := GenerateDeck("lecture", 10, 1<<20, 7)
	if len(deck.Slides) != 10 {
		t.Fatalf("slides = %d", len(deck.Slides))
	}
	if !deck.Verify() {
		t.Fatal("deck failed verification")
	}
	if deck.Size() < (1<<20)-16 || deck.Size() > 1<<20 {
		t.Fatalf("deck size = %d", deck.Size())
	}
	one := GenerateDeck("x", 0, 100, 1) // n clamps to 1
	if len(one.Slides) != 1 {
		t.Fatalf("clamped slides = %d", len(one.Slides))
	}
}

func streamRig(t testing.TB) (*transport.Endpoint, *Library) {
	t.Helper()
	fab := transport.NewLocalFabric(nil)
	t.Cleanup(func() { fab.Close() })
	srv, err := fab.Attach("media@hostA", "")
	if err != nil {
		t.Fatal(err)
	}
	lib := NewLibrary("hostA")
	lib.Add(GenerateFile("song.mp3", 300_000, 2))
	ServeLibrary(lib, srv)
	cli, err := fab.Attach("player@hostB", "")
	if err != nil {
		t.Fatal(err)
	}
	return cli, lib
}

func TestRemoteStreamReadsWholeFile(t *testing.T) {
	cli, lib := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := OpenRemote(ctx, cli, "media@hostA", URL("hostA", "song.mp3"))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := lib.Get("song.mp3")
	if rs.Size() != want.Size() || rs.Checksum() != want.Checksum {
		t.Fatalf("meta = %d %s", rs.Size(), rs.Checksum())
	}
	var got []byte
	for {
		chunk, eof, err := rs.ReadChunk(ctx, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, chunk...)
		if eof {
			break
		}
	}
	if int64(len(got)) != want.Size() {
		t.Fatalf("read %d bytes, want %d", len(got), want.Size())
	}
	f := File{Name: "song.mp3", Data: got, Checksum: want.Checksum}
	if !f.Verify() {
		t.Fatal("streamed bytes corrupt")
	}
	if rs.Pos() != want.Size() {
		t.Fatalf("Pos = %d", rs.Pos())
	}
}

func TestRemoteStreamPrebuffer(t *testing.T) {
	cli, _ := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := OpenRemote(ctx, cli, "media@hostA", URL("hostA", "song.mp3"))
	if err != nil {
		t.Fatal(err)
	}
	n, err := rs.Prebuffer(ctx, 128<<10)
	if err != nil || n != 128<<10 {
		t.Fatalf("Prebuffer = %d, %v", n, err)
	}
}

func TestRemoteStreamErrors(t *testing.T) {
	cli, _ := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := OpenRemote(ctx, cli, "media@hostA", "bogus://x"); err == nil {
		t.Fatal("bogus URL accepted")
	}
	if _, err := OpenRemote(ctx, cli, "media@hostA", URL("hostA", "missing.mp3")); err == nil {
		t.Fatal("missing file opened")
	}
}

// TestFetchClampsAnOverlongRange: a length that overflows when added to
// the offset reads to the end of the file instead of panicking the
// handler's goroutine, and with it the serving daemon.
func TestFetchClampsAnOverlongRange(t *testing.T) {
	cli, lib := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	song, _ := lib.Get("song.mp3")
	for _, off := range []int64{1, song.Size() / 2, song.Size()} {
		payload := transport.MustEncode(fetchReq{Name: "song.mp3", Offset: off, Length: math.MaxInt64})
		var reply fetchReply
		if err := cli.RequestDecode(ctx, "media@hostA", MsgFetch, payload, &reply); err != nil {
			t.Fatalf("offset %d, length MaxInt64: %v", off, err)
		}
		if int64(len(reply.Data)) != song.Size()-off || !reply.EOF {
			t.Fatalf("offset %d, length MaxInt64: %d bytes (eof %v), want the %d to the end",
				off, len(reply.Data), reply.EOF, song.Size()-off)
		}
	}
}
