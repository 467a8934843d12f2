package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goldenEnvelopes are the messages recorded under testdata/wire by the
// first encoder of envelope version 1; preamble.bin holds its preamble.
var goldenEnvelopes = map[string]Message{
	"request.bin": {
		Type: "registry.lookup", From: "migrate@hostA", To: "registry@lab", ID: 42,
		Payload: []byte("\x01sealed-body\x00\xff"),
	},
	"error-reply.bin": {
		Type: "echo", From: "migrate@hostX", To: "migrate@hostY", ID: 1<<40 + 7, IsReply: true,
		Err: `transport: no route to endpoint: "other@hostX"`,
	},
}

func goldenEnvelope(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// recConn is a connection that keeps what is written to it.
type recConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *recConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// encodeEnvelope is one whole envelope as a link's send puts it on the
// wire.
func encodeEnvelope(t testing.TB, msg Message) []byte {
	t.Helper()
	c := new(recConn)
	if err := (&tcpLink{conn: c}).send(msg); err != nil {
		t.Fatal(err)
	}
	return c.buf.Bytes()
}

// TestGoldenEnvelopes: the recorded messages encode to the recorded bytes
// and decode from them, and the preamble is the recorded one.
func TestGoldenEnvelopes(t *testing.T) {
	for name, msg := range goldenEnvelopes {
		golden := goldenEnvelope(t, name)
		if got := encodeEnvelope(t, msg); !bytes.Equal(got, golden) {
			t.Fatalf("%s re-encodes to\n%x\nrecorded\n%x", name, got, golden)
		}
		got, _, err := readEnvelope(bytes.NewReader(golden), nil)
		if err != nil || !reflect.DeepEqual(got, msg) {
			t.Fatalf("%s decoded %+v (err %v), want %+v", name, got, err, msg)
		}
	}
	if got, golden := preamble(), goldenEnvelope(t, "preamble.bin"); !bytes.Equal(got, golden) {
		t.Fatalf("preamble %x, recorded %x", got, golden)
	}
}

// rawEnvelope prefixes a hand-built header and payload.
func rawEnvelope(hdr, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	b = binary.BigEndian.AppendUint32(b, uint32(len(payload)))
	return append(append(b, hdr...), payload...)
}

// TestEnvelopeRefusals: what a reader must refuse, each with a typed
// error and before it reads a payload.
func TestEnvelopeRefusals(t *testing.T) {
	empty := []byte{0, 0, 0, 0, 0, 0} // flags, ID, Type, From, To, Err
	for name, b := range map[string][]byte{
		"unknown flag bits": rawEnvelope(append([]byte{0x02}, empty[1:]...), []byte("payload")),
		"header over cap":   binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, envHeaderMax+1), 0),
		"empty header":      rawEnvelope(nil, nil),
		"trailing bytes":    rawEnvelope(append(empty, 0xaa), nil),
		"error text too long": rawEnvelope(
			AppendString(empty[:5:5], strings.Repeat("e", envErrMax+1)), nil),
	} {
		if _, _, err := readEnvelope(bytes.NewReader(b), nil); !errors.Is(err, errBadEnvelope) {
			t.Fatalf("%s: err = %v, want errBadEnvelope", name, err)
		}
	}
	req := goldenEnvelope(t, "request.bin")
	for n := 1; n < len(req); n++ {
		if _, _, err := readEnvelope(bytes.NewReader(req[:n]), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("request torn at %d of %d bytes: err = %v, want io.ErrUnexpectedEOF", n, len(req), err)
		}
	}
	if _, _, err := readEnvelope(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	// A sender cuts an over-long error text instead of writing a header
	// its peer would refuse.
	b := encodeEnvelope(t, Message{IsReply: true, ID: 1, Err: strings.Repeat("e", envErrMax+100)})
	if got, _, err := readEnvelope(bytes.NewReader(b), nil); err != nil || len(got.Err) != envErrMax {
		t.Fatalf("long error reply read back as %d bytes of text (err %v), want %d", len(got.Err), err, envErrMax)
	}
}

// TestEnvelopePayloadPastOneChunk: a payload longer than envAllocMax is
// read chunk by chunk and arrives whole.
func TestEnvelopePayloadPastOneChunk(t *testing.T) {
	msg := Message{Type: "bulk", From: "a", To: "b", ID: 3, Payload: make([]byte, 2*envAllocMax+3)}
	for i := range msg.Payload {
		msg.Payload[i] = byte(i * 7)
	}
	got, _, err := readEnvelope(bytes.NewReader(encodeEnvelope(t, msg)), nil)
	if err != nil || !reflect.DeepEqual(got, msg) {
		t.Fatalf("%d-byte payload did not round-trip (err %v)", len(msg.Payload), err)
	}
}

// FuzzReadEnvelope: readEnvelope is what every TCP link runs on the bytes
// a peer sends. For any input it returns a typed error or a message that
// survives an encode/read round trip, and whose body sent as parts —
// split where the input's last byte says — encodes to the same bytes;
// it never panics; it allocates at most 16 bytes per input byte plus one
// payload chunk, however much the prefix claims (plus 4 KiB for the
// scratch buffer and what the fuzzing engine allocates beside it); and
// its scratch buffer still reads a valid envelope afterwards.
func FuzzReadEnvelope(f *testing.F) {
	for _, name := range []string{"request.bin", "error-reply.bin", "preamble.bin"} {
		f.Add(goldenEnvelope(f, name))
	}
	empty := []byte{0, 0, 0, 0, 0, 0}
	claim := binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(len(empty))), 1<<32-1)
	f.Add(append(append(claim, empty...), "ten bytes!"...))                   // 4 GiB payload claimed
	f.Add(rawEnvelope(append([]byte{0x80}, empty[1:]...), []byte("payload"))) // unknown flag bits
	valid := goldenEnvelope(f, "request.bin")
	want := goldenEnvelopes["request.bin"]

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, scratch, err := readEnvelope(bytes.NewReader(data), nil)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+envAllocMax+4<<10); got > limit {
			t.Fatalf("reading %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			if !errors.Is(err, errBadEnvelope) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error %v", err)
			}
		} else {
			whole := encodeEnvelope(t, msg)
			again, _, err := readEnvelope(bytes.NewReader(whole), nil)
			if err != nil || !reflect.DeepEqual(again, msg) {
				t.Fatalf("round trip changed the message (err %v):\n%+v\n%+v", err, msg, again)
			}
			cut := int(data[len(data)-1]) % (len(msg.Payload) + 1)
			parts := msg
			parts.Payload, parts.more = msg.Payload[:cut], &[][]byte{nil, msg.Payload[cut:]}
			if got := encodeEnvelope(t, parts); !bytes.Equal(got, whole) {
				t.Fatalf("the body sent as parts cut at %d encodes to\n%x\nwhole\n%x", cut, got, whole)
			}
		}
		got, _, err := readEnvelope(bytes.NewReader(valid), scratch)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("a valid envelope after the input read as %+v (err %v)", got, err)
		}
	})
}

// node starts a TCP node that echoes "echo" requests and closes with the
// test.
func node(t *testing.T, name string) *TCPNode {
	t.Helper()
	n := echoNode(t, name, "127.0.0.1:0")
	t.Cleanup(func() { n.Close() })
	return n
}

// listen starts a raw listener and runs serve on every connection it
// accepts; both close with the test.
func listen(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { conn.Close() })
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// requestWithin issues one echo request with a generous deadline and
// fails the test if it takes longer than within to come back.
func requestWithin(t *testing.T, n *TCPNode, to string, within time.Duration) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := n.Endpoint().Request(ctx, to, "echo", []byte("hi"))
	if d := time.Since(start); d > within {
		t.Fatalf("request to %s took %v (err %v), want under %v", to, d, err, within)
	}
	return err
}

// TestHandshakeRefusedByGobAcceptor: an acceptor of a build from before
// the envelope — a gob.Decoder per connection, closed at its first
// decode error — fails on the preamble's first byte, and the dialer
// reports ErrVersion at once instead of waiting out its deadline.
func TestHandshakeRefusedByGobAcceptor(t *testing.T) {
	addr := listen(t, func(conn net.Conn) {
		defer conn.Close()
		dec := gob.NewDecoder(conn)
		for {
			var msg Message
			if dec.Decode(&msg) != nil {
				return
			}
		}
	})
	cli := node(t, "client")
	cli.AddPeer("old", addr)
	if err := requestWithin(t, cli, "old", time.Second); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

// TestGobDialerIsClosed: a dialer of a build from before the envelope
// gets this build's preamble (which its gob decoder cannot read) and a
// closed connection, and the node goes on serving.
func TestGobDialerIsClosed(t *testing.T) {
	srv := node(t, "server")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(Message{Type: "echo", From: "old", To: "server", ID: 1, Payload: []byte("hi")}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the node kept a gob dialer's connection open")
	}
	if !bytes.HasPrefix(preamble(), got) {
		t.Fatalf("the node answered a gob dialer with %x", got)
	}

	cli := node(t, "client")
	cli.AddPeer("server", srv.Addr())
	if err := requestWithin(t, cli, "server", 5*time.Second); err != nil {
		t.Fatalf("request after the gob dialer: %v", err)
	}
}

// TestHandshakeFutureVersion: both sides of a link between this envelope
// version and the next. The dialer gets ErrVersion naming both versions;
// a dialer of the next version gets this build's preamble, then EOF.
func TestHandshakeFutureVersion(t *testing.T) {
	future := append(envMagic[:len(envMagic):len(envMagic)], envVersion+1)
	addr := listen(t, func(conn net.Conn) {
		if _, err := io.ReadFull(conn, make([]byte, envPreambleLen)); err != nil {
			return
		}
		conn.Write(future)
		io.Copy(io.Discard, conn) // hold the link open: the dialer must close it
	})
	cli := node(t, "client")
	cli.AddPeer("next", addr)
	err := requestWithin(t, cli, "next", time.Second)
	if gotWant := fmt.Sprintf("got %d, want %d", envVersion+1, envVersion); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), gotWant) {
		t.Fatalf("err = %v, want ErrVersion with %q", err, gotWant)
	}

	srv := node(t, "server")
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(future); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := io.ReadAll(conn); err != nil || !bytes.Equal(got, preamble()) {
		t.Fatalf("acceptor answered a future preamble with %x (err %v), want its own preamble and EOF", got, err)
	}
}

// TestHandshakeSilentAcceptor: an acceptor that never answers costs the
// dialer the handshake bound, not the caller's deadline.
func TestHandshakeSilentAcceptor(t *testing.T) {
	addr := listen(t, func(conn net.Conn) { io.Copy(io.Discard, conn) })
	cli := node(t, "client")
	cli.AddPeer("silent", addr)
	err := requestWithin(t, cli, "silent", handshakeTimeout+2*time.Second)
	if err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a handshake error", err)
	}
}

// TestTCPRequestToUnservedNameIsRefused: a node answers a request for a
// name it does not serve with ErrNoRoute instead of leaving the caller
// to its deadline; a one-way send to such a name is dropped.
func TestTCPRequestToUnservedNameIsRefused(t *testing.T) {
	srv := node(t, "migrate@hostX")
	cli := node(t, "migrate@hostY")
	cli.AddPeer("other@hostX", srv.Addr())
	err := requestWithin(t, cli, "other@hostX", time.Second)
	if !errors.Is(err, ErrNoRoute) || !strings.Contains(err.Error(), `"other@hostX"`) {
		t.Fatalf("err = %v, want ErrNoRoute naming other@hostX", err)
	}
	if err := cli.Endpoint().Send("other@hostX", "echo", nil); err != nil {
		t.Fatalf("one-way send: %v", err)
	}
}

// TestBulkRequestAllocatesOnePayload: a 2.77 MB request between two TCP
// nodes allocates the payload once, at the receiver — the sender writes
// from the caller's slices, one or several (a check-in's head, wrap head
// and components), and the receiver reads into the handler's.
func TestBulkRequestAllocatesOnePayload(t *testing.T) {
	srv := node(t, "server")
	srv.Endpoint().Handle("sink", func(Message) ([]byte, error) { return make([]byte, 8), nil })
	cli := node(t, "client")
	cli.AddPeer("server", srv.Addr())
	bulk := make([]byte, 2_768_467)
	for name, body := range map[string][][]byte{
		"one slice": {bulk},
		"parts":     {bulk[:669], bulk[669:1000], bulk[1000:2_000_000], bulk[2_000_000:]},
	} {
		send := func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := cli.Endpoint().Request(ctx, "server", "sink", body[0], body[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		send() // dial and handshake
		const n = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			send()
		}
		runtime.ReadMemStats(&after)
		per := float64(after.TotalAlloc-before.TotalAlloc) / n / float64(len(bulk))
		if per > 1.25 {
			t.Fatalf("%s: a %d-byte request allocated %.2f payload lengths, want at most 1.25", name, len(bulk), per)
		}
		t.Logf("%s: a %d-byte request allocated %.2f payload lengths", name, len(bulk), per)
	}
}

// TestEnvelopeLen: the length the in-process fabric charges is the length
// of the envelope a TCP link writes, for a request, a request whose body
// is sent as parts, a reply and an error reply (one whose error text the
// envelope cuts at envErrMax included).
func TestEnvelopeLen(t *testing.T) {
	msgs := []Message{
		{Type: "registry.lookup", From: "migrate@hostA", To: "registry@lab", ID: 42, Payload: []byte("\x01sealed-body")},
		{Type: "migrate.checkin", From: "migrate@hostA", To: "migrate@hostB", ID: 43, Payload: []byte("\x02\x30head"),
			more: &[][]byte{nil, make([]byte, 300), []byte("component")}},
		{Type: "registry.lookup", From: "registry@lab", To: "migrate@hostA", ID: 1<<40 + 7, IsReply: true, Payload: make([]byte, 300)},
		{Type: "echo", From: "migrate@hostX", To: "migrate@hostY", ID: 1, IsReply: true, Err: `transport: no route to endpoint: "other@hostX"`},
		{Type: "echo", From: "a", To: "b", ID: 200, IsReply: true, Err: strings.Repeat("e", envErrMax+10)},
	}
	for _, msg := range msgs {
		if got, want := envelopeLen(msg), len(encodeEnvelope(t, msg)); got != want {
			t.Errorf("envelopeLen(%s reply=%v err=%d B) = %d, envelope is %d bytes", msg.Type, msg.IsReply, len(msg.Err), got, want)
		}
	}
}
