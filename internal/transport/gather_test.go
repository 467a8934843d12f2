package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// gatherBodies are bodies sent as parts: the first part is Request's
// payload, the rest its further parts.
func gatherBodies() map[string][][]byte {
	// More parts than one writev takes (the iovec limit is 1024), every
	// seventh of them empty.
	many := make([][]byte, 1500)
	for i := range many {
		many[i] = bytes.Repeat([]byte{byte(i)}, i%7)
	}
	return map[string][][]byte{
		"an empty part":           {[]byte("head|"), nil, []byte("frame|"), {}, []byte("component")},
		"one part":                {[]byte("the whole body")},
		"empty payload, one part": {nil, []byte("frame")},
		"1500 parts":              many,
	}
}

func requestParts(ep *Endpoint, to, msgType string, body [][]byte) (Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return ep.Request(ctx, to, msgType, body[0], body[1:]...)
}

// TestGatheredBodyOverTCP: a body sent as parts arrives at a TCP peer's
// handler byte-identical to their join.
func TestGatheredBodyOverTCP(t *testing.T) {
	srv := node(t, "server")
	cli := node(t, "client")
	cli.AddPeer("server", srv.Addr())
	for name, body := range gatherBodies() {
		want := bytes.Join(body, nil)
		reply, err := requestParts(cli.Endpoint(), "server", "echo", body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(reply.Payload, want) {
			t.Fatalf("%s: the handler got %d bytes, the parts join to %d", name, len(reply.Payload), len(want))
		}
	}
}

// TestGatheredBodyDeliveredInProcess: a body sent as parts to a name the
// sending node serves itself — its own or an alias — or over LocalFabric
// reaches the handler as one fresh Payload equal to the parts' join.
func TestGatheredBodyDeliveredInProcess(t *testing.T) {
	body := [][]byte{[]byte("head|"), nil, []byte("frame|"), []byte("component")}
	want := bytes.Join(body, nil)
	check := func(msg Message) ([]byte, error) {
		if msg.more != nil || !bytes.Equal(msg.Payload, want) {
			return nil, fmt.Errorf("handler got %q and %d further parts, want %q", msg.Payload, len(msg.parts()), want)
		}
		if &msg.Payload[0] == &body[0][0] {
			return nil, errors.New("the handler's payload is the sender's first part")
		}
		return nil, nil
	}
	n := node(t, "migrate@hostX")
	n.AddAlias("media@hostX")
	n.Endpoint().Handle("check", check)
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostB")
	b.Handle("check", check)
	for name, send := range map[string]func() (Message, error){
		"own name":    func() (Message, error) { return requestParts(n.Endpoint(), "migrate@hostX", "check", body) },
		"alias":       func() (Message, error) { return requestParts(n.Endpoint(), "media@hostX", "check", body) },
		"LocalFabric": func() (Message, error) { return requestParts(a, "b", "check", body) },
	} {
		if _, err := send(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// cutConn passes the first left bytes written to it on to the connection
// it wraps, then fails and closes that connection: a link that dies part
// way through a message.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b[:min(len(b), c.left)])
	c.left -= n
	if err == nil && n < len(b) {
		c.Conn.Close()
		err = errors.New("link cut")
	}
	return n, err
}

// TestGatheredSendResentWholeAfterRedial: a body sent as parts whose send
// fails part way on a cached link is sent again, whole, over the link the
// node redials.
func TestGatheredSendResentWholeAfterRedial(t *testing.T) {
	srv := node(t, "server")
	cli := node(t, "client")
	cli.AddPeer("server", srv.Addr())
	if err := requestWithin(t, cli, "server", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	link := cli.conns[srv.Addr()]
	cli.mu.Unlock()
	body := gatherBodies()["1500 parts"]
	want := bytes.Join(body, nil)
	// The header is some 30 bytes: the link dies inside the parts.
	link.mu.Lock()
	link.conn = &cutConn{Conn: link.conn, left: 200}
	link.mu.Unlock()

	reply, err := requestParts(cli.Endpoint(), "server", "echo", body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply.Payload, want) {
		t.Fatalf("the resent body arrived as %d bytes, the parts join to %d", len(reply.Payload), len(want))
	}
	cli.mu.Lock()
	redialled := cli.conns[srv.Addr()] != link
	cli.mu.Unlock()
	if !redialled {
		t.Fatal("the request went through without the cut link being replaced")
	}
}
