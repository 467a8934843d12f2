package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestFastFrameRoundTrip drives every writer/reader pair through one
// frame, including the values with trap encodings: the virtual-clock
// epoch time.Unix(0,0) (UnixNano 0, but NOT the zero time), the true
// zero time, and empty strings/slices.
func TestFastFrameRoundTrip(t *testing.T) {
	epoch := time.Unix(0, 0)
	at := time.Unix(1700000000, 123456789)
	digest := bytes.Repeat([]byte{0xAB}, 32)

	var b []byte
	b = AppendUint(b, 0)
	b = AppendUint(b, 1<<40+7)
	b = AppendString(b, "")
	b = AppendString(b, "smart-media-player")
	b = AppendBytes(b, nil)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendTime(b, time.Time{})
	b = AppendTime(b, epoch)
	b = AppendTime(b, at)
	b = append(b, digest...)

	frame := SealFast(OpSnapPut, b)
	op, body, err := OpenFast(frame)
	if err != nil || op != OpSnapPut {
		t.Fatalf("OpenFast: op=%#x err=%v", op, err)
	}

	r := NewFastReader(body)
	if v := r.Uint(); v != 0 {
		t.Fatalf("uint #1 = %d", v)
	}
	if v := r.Uint(); v != 1<<40+7 {
		t.Fatalf("uint #2 = %d", v)
	}
	if v := r.String(); v != "" {
		t.Fatalf("string #1 = %q", v)
	}
	if v := r.String(); v != "smart-media-player" {
		t.Fatalf("string #2 = %q", v)
	}
	if v := r.Bytes(); len(v) != 0 {
		t.Fatalf("bytes #1 = %v", v)
	}
	if v := r.Bytes(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes #2 = %v", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if v := r.Time(); !v.IsZero() {
		t.Fatalf("zero time decoded as %v", v)
	}
	// The epoch must come back as the epoch, not as the zero time: the
	// simulated testbed clock starts at Unix(0,0) and its timestamps
	// must survive the wire.
	if v := r.Time(); !v.Equal(epoch) || v.IsZero() {
		t.Fatalf("epoch decoded as %v (IsZero=%v)", v, v.IsZero())
	}
	if v := r.Time(); !v.Equal(at) {
		t.Fatalf("time decoded as %v, want %v", v, at)
	}
	if v := r.Fixed(32); !bytes.Equal(v, digest) {
		t.Fatalf("fixed field = %x", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error after full decode: %v", err)
	}
}

// TestFastFrameRefusals pins the version contract in both directions:
// Open (gob path) refuses a v2 frame with ErrVersion, and OpenFast
// refuses v1 and short frames the same way — the refusal every
// one-encoding op relies on.
func TestFastFrameRefusals(t *testing.T) {
	if _, err := Open(SealFast(OpSnapPut, []byte("x"))); !errors.Is(err, ErrVersion) {
		t.Fatalf("Open(v2 frame) = %v, want ErrVersion", err)
	}
	if _, _, err := OpenFast(Seal([]byte("x"))); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenFast(v1 frame) = %v, want ErrVersion", err)
	}
	for _, short := range [][]byte{nil, {}, {ProtoV2}} {
		if _, _, err := OpenFast(short); !errors.Is(err, ErrVersion) {
			t.Fatalf("OpenFast(%v) = %v, want ErrVersion", short, err)
		}
	}
}

// TestFastReaderTruncation checks the sticky-error contract: every read
// past the end fails cleanly (zero value), Err reports the first
// failure, and no read panics on any prefix of a valid body.
func TestFastReaderTruncation(t *testing.T) {
	var b []byte
	b = AppendString(b, "topic")
	b = AppendUint(b, 42)
	b = AppendTime(b, time.Unix(5, 0))
	for n := 0; n < len(b); n++ {
		r := NewFastReader(b[:n])
		_ = r.String()
		_ = r.Uint()
		_ = r.Time()
		_ = r.Fixed(8)
		if n < len(b) && r.Err() == nil {
			t.Fatalf("truncated body (%d of %d bytes) decoded without error", n, len(b))
		}
	}
	// A bytes field whose length prefix exceeds the body must fail, not
	// slice out of range.
	r := NewFastReader(AppendUint(nil, 1<<30))
	if v := r.Bytes(); v != nil || r.Err() == nil {
		t.Fatalf("oversized length prefix: v=%v err=%v", v, r.Err())
	}
}

// TestHandleOrderedPreservesOrder floods an ordered handler with
// one-way sends from a single sender and requires arrival-order
// processing — the property the watch event stream depends on, which
// the default goroutine-per-message dispatch does not give.
func TestHandleOrderedPreservesOrder(t *testing.T) {
	fab := NewLocalFabric(nil)
	src, err := fab.Attach("ordered-src", "")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fab.Attach("ordered-dst", "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	got := make([]string, 0, n)
	done := make(chan struct{})
	dst.HandleOrdered("seq", func(msg Message) ([]byte, error) {
		got = append(got, string(msg.Payload)) // single worker: no lock needed
		if len(got) == n {
			close(done)
		}
		return nil, nil
	})
	for i := 0; i < n; i++ {
		if err := src.Send("ordered-dst", "seq", fmt.Appendf(nil, "%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("ordered handler saw %d of %d messages", len(got), n)
	}
	for i, v := range got {
		if v != fmt.Sprint(i) {
			t.Fatalf("message %d arrived as %q", i, v)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHandleOrderedCloseDrains closes an endpoint while ordered
// messages are still queued: Close must wait for every accepted message
// (the inflight contract) and must not deadlock or panic.
func TestHandleOrderedCloseDrains(t *testing.T) {
	fab := NewLocalFabric(nil)
	src, err := fab.Attach("drain-src", "")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := fab.Attach("drain-dst", "")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	handled := 0
	dst.HandleOrdered("work", func(msg Message) ([]byte, error) {
		time.Sleep(100 * time.Microsecond)
		mu.Lock()
		handled++
		mu.Unlock()
		return nil, nil
	})
	const n = 200
	for i := 0; i < n; i++ {
		if err := src.Send("drain-dst", "work", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if handled != n {
		t.Fatalf("Close returned with %d of %d queued messages handled", handled, n)
	}
}
