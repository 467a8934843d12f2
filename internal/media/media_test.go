package media

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mdagent/internal/transport"
)

// verified recomputes f's checksum and reports integrity.
func verified(f File) bool {
	sum := sha256.Sum256(f.Data)
	return hex.EncodeToString(sum[:]) == f.Checksum
}

func TestGenerateFileDeterministicAndVerifies(t *testing.T) {
	a := GenerateFile("song.mp3", 1<<16, 3)
	b := GenerateFile("song.mp3", 1<<16, 3)
	if a.Checksum != b.Checksum {
		t.Fatal("same inputs produced different files")
	}
	if !verified(a) {
		t.Fatal("fresh file fails verification")
	}
	a.Data[0] ^= 0xff
	if verified(a) {
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
	_, hasA := lib.Get("a.mp3")
	_, hasZ := lib.Get("zzz.mp3")
	if !hasA || hasZ || len(lib.byN) != 2 {
		t.Fatalf("library holds %d files, a.mp3 %v, zzz.mp3 %v", len(lib.byN), hasA, hasZ)
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
	for _, s := range deck.Slides {
		if !verified(s) {
			t.Fatalf("slide %s failed verification", s.Name)
		}
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
	if rs.Size() != want.Size() || rs.sum != want.Checksum {
		t.Fatalf("meta = %d %s", rs.Size(), rs.sum)
	}
	var got []byte
	for {
		rep, err := rs.read(ctx, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rep.Data...)
		if rep.EOF {
			break
		}
	}
	if int64(len(got)) != want.Size() {
		t.Fatalf("read %d bytes, want %d", len(got), want.Size())
	}
	f := File{Name: "song.mp3", Data: got, Checksum: want.Checksum}
	if !verified(f) {
		t.Fatal("streamed bytes corrupt")
	}
	if rs.pos != want.Size() {
		t.Fatalf("Pos = %d", rs.pos)
	}
}

// TestRemoteStreamPrebuffer: one request opens the file and reads the
// player's prebuffer window, which aliases the reply.
func TestRemoteStreamPrebuffer(t *testing.T) {
	cli, lib := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := cli.Requests()
	rs, window, err := OpenRemoteWindow(ctx, cli, "media@hostA", URL("hostA", "song.mp3"), 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := lib.Get("song.mp3")
	if n := cli.Requests() - before; n != 1 {
		t.Fatalf("open and prebuffer took %d requests, want 1", n)
	}
	if !bytes.Equal(window, want.Data[:128<<10]) || rs.pos != 128<<10 || rs.Size() != want.Size() || rs.sum != want.Checksum {
		t.Fatalf("window of %d bytes, pos %d, size %d, checksum %s", len(window), rs.pos, rs.Size(), rs.sum)
	}
	rest, err := rs.read(ctx, want.Size())
	if err != nil || !rest.EOF || !bytes.Equal(rest.Data, want.Data[128<<10:]) {
		t.Fatalf("the rest: %d bytes, eof %v, err %v", len(rest.Data), rest.EOF, err)
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
	for _, off := range []uint64{1, uint64(song.Size() / 2), uint64(song.Size())} {
		reply, err := cli.Request(ctx, "media@hostA", MsgRead, encodeReadReq(readReq{Name: "song.mp3", Offset: off, Length: math.MaxUint64}))
		if err != nil {
			t.Fatalf("offset %d, length MaxUint64: %v", off, err)
		}
		rep, err := decodeReadReply(reply.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(rep.Data)) != uint64(song.Size())-off || !rep.EOF {
			t.Fatalf("offset %d, length MaxUint64: %d bytes (eof %v), want the %d to the end",
				off, len(rep.Data), rep.EOF, uint64(song.Size())-off)
		}
	}
}

// TestGoldenReadFrames pins media.read: the recorded request and reply
// are what today's encoders write, byte for byte. The request decodes to
// the recorded value, and the reply is what the library serves for it.
func TestGoldenReadFrames(t *testing.T) {
	cli, _ := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := readReq{Name: "song.mp3", Offset: 299_990, Length: 64}
	golden := func(name string) []byte {
		raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if got, want := encodeReadReq(req), golden("read-req.bin"); !bytes.Equal(got, want) {
		t.Fatalf("request:\n%x\nthe recorded frame is\n%x", got, want)
	}
	if q, err := decodeReadReq(golden("read-req.bin")); err != nil || q != req {
		t.Fatalf("recorded request decodes to %+v (err %v)", q, err)
	}
	reply, err := cli.Request(ctx, "media@hostA", MsgRead, golden("read-req.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if want := golden("read-reply.bin"); !bytes.Equal(reply.Payload, want) {
		t.Fatalf("reply:\n%x\nthe recorded frame is\n%x", reply.Payload, want)
	}
	if rep, err := decodeReadReply(reply.Payload); err != nil || len(rep.Data) != 10 || !rep.EOF || rep.Size != 300_000 {
		t.Fatalf("recorded reply decodes to %+v (err %v)", rep, err)
	}
}

// TestRetiredMediaOpsAreGone: media.meta and media.fetch have no handler,
// so a peer of the build before gets the typed ErrNoHandler, as this
// build does from it; and media.read refuses their gob body with
// ErrVersion.
func TestRetiredMediaOpsAreGone(t *testing.T) {
	cli, _ := streamRig(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	gobReq := transport.MustEncode(struct {
		Name           string
		Offset, Length int64
	}{Name: "song.mp3"})
	for _, op := range []string{"media.meta", "media.fetch"} {
		if _, err := cli.Request(ctx, "media@hostA", op, gobReq); !errors.Is(err, transport.ErrNoHandler) {
			t.Fatalf("%s: err = %v, want ErrNoHandler", op, err)
		}
	}
	if _, err := cli.Request(ctx, "media@hostA", MsgRead, gobReq); !errors.Is(err, transport.ErrVersion) {
		t.Fatalf("a gob body on %s: err = %v, want ErrVersion", MsgRead, err)
	}
}
