package transport

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/netsim"
	"mdagent/internal/vclock"
)

func newFabric(t *testing.T) (*LocalFabric, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	net := netsim.New(clk, netsim.WithSeed(3))
	if _, err := net.AddHost("hostA", "lab", netsim.Pentium4_1700(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddHost("hostB", "lab", netsim.PentiumM_1600(), 0); err != nil {
		t.Fatal(err)
	}
	return NewLocalFabric(net), clk
}

func TestLocalRequestReply(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, err := f.Attach("a", "hostA")
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Attach("b", "hostB")
	if err != nil {
		t.Fatal(err)
	}
	b.Handle("echo", func(msg Message) ([]byte, error) {
		return append([]byte("echo:"), msg.Payload...), nil
	})
	reply, err := a.Request(context.Background(), "b", "echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Payload) != "echo:hi" {
		t.Fatalf("reply = %q", reply.Payload)
	}
	if !reply.IsReply || reply.From != "b" {
		t.Fatalf("reply metadata = %+v", reply)
	}
}

func TestLocalRequestChargesNetwork(t *testing.T) {
	f, clk := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostB")
	b.Handle("ping", func(msg Message) ([]byte, error) { return nil, nil })
	before := clk.Now()
	if _, err := a.Request(context.Background(), "b", "ping", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	elapsed := clk.Now().Sub(before)
	// 1 MiB over 10 Mbps is ~839 ms one way; the reply adds a small frame.
	if elapsed < 700*time.Millisecond {
		t.Fatalf("virtual elapsed = %v, want ≥ 700ms (10Mbps charging)", elapsed)
	}
}

func TestLocalSameHostIsFree(t *testing.T) {
	f, clk := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostA") // same host
	b.Handle("ping", func(msg Message) ([]byte, error) { return nil, nil })
	before := clk.Now()
	if _, err := a.Request(context.Background(), "b", "ping", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(before); got != 0 {
		t.Fatalf("same-host request charged %v", got)
	}
}

func TestLocalHandlerError(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostB")
	b.Handle("boom", func(msg Message) ([]byte, error) {
		return nil, errors.New("kaput")
	})
	_, err := a.Request(context.Background(), "b", "boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Msg != "kaput" || re.Endpoint != "b" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestLocalNoHandler(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	if _, err := f.Attach("b", "hostB"); err != nil {
		t.Fatal(err)
	}
	_, err := a.Request(context.Background(), "b", "nosuch", nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v, want no-handler reply", err)
	}
}

func TestLocalNoRoute(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	if err := a.Send("ghost", "x", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestAttachValidation(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	if _, err := f.Attach("a", "hostA"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach("a", "hostB"); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := f.Attach("c", "ghostHost"); err == nil {
		t.Fatal("unknown host accepted")
	}
}

func TestRequestContextCancel(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostB")
	block := make(chan struct{})
	b.Handle("slow", func(msg Message) ([]byte, error) {
		<-block
		return nil, nil
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Request(ctx, "b", "slow", nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Request did not honor cancellation")
	}
	close(block)
}

func TestEndpointCloseFailsPending(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
	if _, err := a.Request(context.Background(), "b", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Request after close = %v, want ErrClosed", err)
	}
	// Re-attach under the same name is allowed after close.
	if _, err := f.Attach("a", "hostA"); err != nil {
		t.Fatalf("re-attach after close: %v", err)
	}
}

func TestHandlerCanIssueNestedRequests(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostB")
	c, _ := f.Attach("c", "hostB")
	c.Handle("leaf", func(msg Message) ([]byte, error) { return []byte("leafdata"), nil })
	b.Handle("mid", func(msg Message) ([]byte, error) {
		reply, err := b.Request(context.Background(), "c", "leaf", nil)
		if err != nil {
			return nil, err
		}
		return append([]byte("mid+"), reply.Payload...), nil
	})
	reply, err := a.Request(context.Background(), "b", "mid", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(reply.Payload) != "mid+leafdata" {
		t.Fatalf("reply = %q", reply.Payload)
	}
}

func TestConcurrentRequests(t *testing.T) {
	f, _ := newFabric(t)
	defer f.Close()
	a, _ := f.Attach("a", "hostA")
	b, _ := f.Attach("b", "hostA")
	b.Handle("echo", func(msg Message) ([]byte, error) { return msg.Payload, nil })
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte{byte(i)}
			reply, err := a.Request(context.Background(), "b", "echo", payload)
			if err != nil {
				errs <- err
				return
			}
			if len(reply.Payload) != 1 || reply.Payload[0] != byte(i) {
				errs <- errors.New("correlation mixed up replies")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	type payload struct {
		Name string
		N    int
		Data []byte
	}
	in := payload{Name: "x", N: 42, Data: []byte{1, 2, 3}}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.N != in.N || len(out.Data) != 3 {
		t.Fatalf("round trip = %+v", out)
	}
	if err := Decode([]byte("garbage"), &out); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestMustEncodePanicsOnUnencodable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode did not panic on a channel")
		}
	}()
	MustEncode(make(chan int))
}

func TestTCPRequestReply(t *testing.T) {
	srv, err := ListenTCP("server", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Endpoint().Handle("sum", func(msg Message) ([]byte, error) {
		var nums []int
		if err := Decode(msg.Payload, &nums); err != nil {
			return nil, err
		}
		total := 0
		for _, n := range nums {
			total += n
		}
		return Encode(total)
	})

	cli, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AddPeer("server", srv.Addr())

	payload, _ := Encode([]int{1, 2, 3, 4})
	var total int
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.Endpoint().RequestDecode(ctx, "server", "sum", payload, &total); err != nil {
		t.Fatal(err)
	}
	if total != 10 {
		t.Fatalf("sum = %d, want 10", total)
	}
}

func TestTCPErrorReply(t *testing.T) {
	srv, err := ListenTCP("server", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Endpoint().Handle("fail", func(msg Message) ([]byte, error) {
		return nil, errors.New("server says no")
	})
	cli, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AddPeer("server", srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = cli.Endpoint().Request(ctx, "server", "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "server says no" {
		t.Fatalf("err = %v, want RemoteError(server says no)", err)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	cli, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Endpoint().Send("nowhere", "x", nil); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestTCPDialFailure(t *testing.T) {
	cli, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AddPeer("dead", "127.0.0.1:1") // nothing listens on port 1
	if err := cli.Endpoint().Send("dead", "x", nil); err == nil {
		t.Fatal("Send to dead peer succeeded")
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	srv, err := ListenTCP("server", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var mu sync.Mutex
	calls := 0
	srv.Endpoint().Handle("ping", func(msg Message) ([]byte, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, nil
	})
	cli, err := ListenTCP("client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cli.AddPeer("server", srv.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := cli.Endpoint().Request(ctx, "server", "ping", nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 20 {
		t.Fatalf("calls = %d, want 20", calls)
	}
	cli.mu.Lock()
	nConns := len(cli.conns)
	cli.mu.Unlock()
	if nConns != 1 {
		t.Fatalf("connections = %d, want 1 (reused)", nConns)
	}
}

func TestFabricCloseIsIdempotent(t *testing.T) {
	f, _ := newFabric(t)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach("x", "hostA"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Attach after close = %v, want ErrClosed", err)
	}
}

// TestHandlerPanicIsAnErrorReply: a handler that panics — registered with
// Handle or HandleOrdered, on a request or a one-way Send — costs only its
// own message. The requester gets ErrHandlerPanic naming the message type
// and the value, the next message is served, and Close still returns (the
// inflight count balanced).
func TestHandlerPanicIsAnErrorReply(t *testing.T) {
	t.Run("local", func(t *testing.T) {
		f := NewLocalFabric(nil)
		defer f.Close()
		a, err := f.Attach("a", "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := f.Attach("b", "")
		if err != nil {
			t.Fatal(err)
		}
		checkHandlerPanics(t, a, b, "b", b.Close)
	})
	t.Run("tcp", func(t *testing.T) {
		srv, err := ListenTCP("server", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cli, err := ListenTCP("client", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		cli.AddPeer("server", srv.Addr())
		checkHandlerPanics(t, cli.Endpoint(), srv.Endpoint(), "server", srv.Close)
	})
}

func checkHandlerPanics(t *testing.T, from, srv *Endpoint, to string, closeSrv func() error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sent := make(chan struct{}, 1)
	h := func(msg Message) ([]byte, error) {
		switch string(msg.Payload) {
		case "panic":
			panic("boom")
		case "send":
			sent <- struct{}{}
			panic("one-way boom")
		}
		return msg.Payload, nil
	}
	srv.Handle("plain", h)
	srv.HandleOrdered("ordered", h)
	served := func(typ string) {
		t.Helper()
		if reply, err := from.Request(ctx, to, typ, []byte("ok")); err != nil || string(reply.Payload) != "ok" {
			t.Fatalf("%s after a panic: %q, %v", typ, reply.Payload, err)
		}
	}
	for _, typ := range []string{"plain", "ordered"} {
		_, err := from.Request(ctx, to, typ, []byte("panic"))
		if !errors.Is(err, ErrHandlerPanic) || !strings.Contains(err.Error(), typ+": boom") {
			t.Fatalf("%s: err = %v, want ErrHandlerPanic naming %s and the value", typ, err, typ)
		}
		served(typ)
		if err := from.Send(to, typ, []byte("send")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sent:
		case <-ctx.Done():
			t.Fatalf("%s: the one-way message never reached its handler", typ)
		}
		served(typ)
	}
	closed := make(chan error, 1)
	go func() { closed <- closeSrv() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after handlers panicked")
	}
}
