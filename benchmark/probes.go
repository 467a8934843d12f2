package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// bulkBytes is about the size of the static-binding wrap of the player
// with a 2 MB song: what one followme-static-cold hop puts on the wire.
const bulkBytes = 2_768_467

// transportProbe measures the TCP fabric alone: two transport.ListenTCP
// nodes inside the generator with an echo handler, so both ends of every
// message are in this process and the allocation counts cover send and
// receive together. Nothing else may run in the generator meanwhile.
func transportProbe(ctx context.Context, rec *recorder, m metrics) error {
	server, err := transport.ListenTCP("probe-server", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer server.Close()
	client, err := transport.ListenTCP("probe-client", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer client.Close()
	client.AddPeer("probe-server", server.Addr())
	server.Endpoint().Handle("echo", func(msg transport.Message) ([]byte, error) { return msg.Payload, nil })
	server.Endpoint().Handle("sink", func(msg transport.Message) ([]byte, error) { return make([]byte, 8), nil })
	ep := client.Endpoint()
	small := make([]byte, 64)
	echo := func() error {
		ctx, cancel := withTimeout(ctx)
		defer cancel()
		reply, err := ep.Request(ctx, "probe-server", "echo", small)
		if err == nil && len(reply.Payload) != len(small) {
			err = fmt.Errorf("echo returned %d bytes, want %d", len(reply.Payload), len(small))
		}
		return err
	}
	sp := rec.begin("probe.transport", -1, 0)
	defer rec.end(sp)
	if _, err := timeCalls(200, echo); err != nil { // dial, gob type exchange
		return fmt.Errorf("transport echo: %w", err)
	}

	const n = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := timeCalls(n, echo)
	runtime.ReadMemStats(&after)
	if err != nil {
		return fmt.Errorf("transport echo: %w", err)
	}
	m.set("transport.echo_small_p50_us", p50(d, time.Microsecond))
	m.set("transport.echo_small_allocs_per_op", float64(after.Mallocs-before.Mallocs)/n)
	m.set("transport.echo_small_alloc_bytes_per_op", float64(after.TotalAlloc-before.TotalAlloc)/n)

	// Two callers on the one link: what the shared encoder and the
	// per-message dispatch goroutine give back under concurrency.
	const callers, window = 2, 500 * time.Millisecond
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		count int
		first error
	)
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := 0
			for time.Since(start) < window {
				if err := echo(); err != nil {
					mu.Lock()
					first = errors.Join(first, err)
					mu.Unlock()
					return
				}
				done++
			}
			mu.Lock()
			count += done
			mu.Unlock()
		}()
	}
	wg.Wait()
	if first != nil {
		return fmt.Errorf("transport echo, %d callers: %w", callers, first)
	}
	m.set("transport.echo_small_c2_ops_per_s", float64(count)/time.Since(start).Seconds())

	bulk := make([]byte, bulkBytes)
	d, err = timeCalls(12, func() error {
		ctx, cancel := withTimeout(ctx)
		defer cancel()
		reply, err := ep.Request(ctx, "probe-server", "sink", bulk)
		if err == nil && len(reply.Payload) != 8 {
			err = fmt.Errorf("sink returned %d bytes, want 8", len(reply.Payload))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("transport bulk: %w", err)
	}
	m.set("transport.send_bulk_p50_ms", p50(d, time.Millisecond))
	return nil
}

// stateProbe times the state codec in-process on the workloads' own
// inputs: the static wrap of the player with its 2 MB song, and the
// cursor delta of a session.
func stateProbe(rec *recorder, m metrics) error {
	sp := rec.begin("probe.state", -1, 0)
	defer rec.end(sp)
	player := demoapps.NewMediaPlayer("hostA", media.GenerateFile("song1", songBytes, 3))
	wrap, err := player.WrapComponents(nil)
	if err != nil {
		return err
	}
	var raw []byte
	enc, err := timeCalls(7, func() (err error) {
		raw, err = state.EncodeWrap(wrap)
		return err
	})
	if err != nil {
		return err
	}
	if len(raw) < songBytes {
		return fmt.Errorf("static wrap encodes to %d bytes, less than its %d-byte song", len(raw), songBytes)
	}
	var back app.Wrap
	dec, err := timeCalls(7, func() (err error) {
		back, err = state.DecodeWrap(raw)
		return err
	})
	if err != nil {
		return err
	}
	if state.WrapDigest(back) != state.WrapDigest(wrap) {
		return errors.New("decoded wrap differs from the encoded one")
	}
	m.set("state.encode_wrap_2mb_p50_ms", p50(enc, time.Millisecond))
	m.set("state.decode_wrap_2mb_p50_ms", p50(dec, time.Millisecond))

	session := app.New("session-probe", benchHost, sessionDesc("session-probe"))
	cursor := app.NewState("cursor")
	for _, c := range []app.Component{app.NewBlob("data", app.KindData, make([]byte, sessionBlob)), cursor} {
		if err := session.AddComponent(c); err != nil {
			return err
		}
	}
	base, err := session.WrapComponents(nil)
	if err != nil {
		return err
	}
	var encD, appD []time.Duration
	for k := 0; k < probeN; k++ {
		cursor.Set("cursor", fmt.Sprint(k))
		t0 := time.Now()
		w, err := session.WrapComponents([]string{"cursor"})
		if err != nil {
			return err
		}
		delta := state.WrapDelta{App: w.App, FromHost: w.FromHost, BaseDigest: state.WrapDigest(base),
			Components: w.Components, Kinds: w.Kinds, CoordState: w.CoordState, Profile: w.Profile}
		frame, err := state.EncodeDelta(delta)
		if err != nil {
			return err
		}
		encD = append(encD, time.Since(t0))
		t0 = time.Now()
		d, err := state.DecodeDelta(frame)
		if err != nil {
			return err
		}
		if base, err = state.ApplyDelta(base, d); err != nil {
			return err
		}
		appD = append(appD, time.Since(t0))
	}
	m.set("state.encode_delta_p50_us", p50(encD, time.Microsecond))
	m.set("state.apply_delta_p50_us", p50(appD, time.Microsecond))
	return nil
}

// storeProbe times the storage engine in-process on a directory of its
// own, opened the way mdregistry opens its store by default.
func storeProbe(d dirs, rec *recorder, m metrics) (err error) {
	sp := rec.begin("probe.store", -1, 0)
	defer rec.end(sp)
	if err := os.MkdirAll(d.run, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(d.run, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(filepath.Join(dir, "probe"), store.WithSyncPolicy(store.SyncInterval))
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, db.Close()) }()

	sizes := []struct {
		label string
		bytes int
		n     int
	}{{"small", 600, 2000}, {"blob", 65_971, 300}}
	for _, sz := range sizes {
		val := make([]byte, sz.bytes)
		k := 0
		key := func() string { k++; return fmt.Sprintf("%s/%04d", sz.label, k%64) }
		puts, err := timeCalls(sz.n, func() error { return db.Put(key(), val) })
		if err != nil {
			return err
		}
		gets, err := timeCalls(sz.n, func() error {
			v, err := db.Get(key())
			if err == nil && len(v) != sz.bytes {
				err = fmt.Errorf("store returned %d bytes, want %d", len(v), sz.bytes)
			}
			return err
		})
		if err != nil {
			return err
		}
		m.set("store.put_"+sz.label+"_p50_us", p50(puts, time.Microsecond))
		m.set("store.get_"+sz.label+"_p50_us", p50(gets, time.Microsecond))
	}
	return nil
}
