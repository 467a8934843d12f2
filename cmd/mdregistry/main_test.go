package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/registry"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/wsdl"
)

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startCenter runs mdregistry's run() in a goroutine and returns the
// bound address.
func startCenter(t *testing.T, out *syncBuffer, args ...string) string {
	t.Helper()
	stop := make(chan struct{})
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(args, out, func(addr string) { addrc <- addr }, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("center %v exited: %v", args, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("center %v did not shut down", args)
		}
	})
	select {
	case addr := <-addrc:
		return addr
	case err := <-errc:
		t.Fatalf("center %v failed: %v", args, err)
	case <-time.After(10 * time.Second):
		t.Fatalf("center %v never became ready", args)
	}
	return ""
}

// TestFederatedCentersReplicateOverTCP boots two federated mdregistry
// processes in-process: a registration written to lab1's center must
// appear at lab2's center, with the version-vector machinery deciding
// the record's fate, all over real TCP.
func TestFederatedCentersReplicateOverTCP(t *testing.T) {
	// Boot lab2 first (no peers yet), then lab1 pointing at lab2. lab1's
	// pushes reach lab2 directly; lab2 learns of lab1's records through
	// lab1's anti-entropy digests (the reply carries nothing, but the
	// push does) — so write at lab1 and read at lab2.
	var out2 syncBuffer
	addr2 := startCenter(t, &out2, "-listen", "127.0.0.1:0", "-space", "lab2")
	var out1 syncBuffer
	addr1 := startCenter(t, &out1, "-listen", "127.0.0.1:0", "-space", "lab1",
		"-fed-peer", "lab2="+addr2)

	// A client node talks the plain registry protocol to lab1's center.
	client, err := transport.ListenTCP("test-client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.AddPeer(cluster.CenterEndpointName("lab1"), addr1)
	client.AddPeer(cluster.CenterEndpointName("lab2"), addr2)
	lab1 := registry.NewClient(client.Endpoint(), cluster.CenterEndpointName("lab1"))
	lab2 := registry.NewClient(client.Endpoint(), cluster.CenterEndpointName("lab2"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec := registry.AppRecord{
		Name: "smart-media-player", Host: "hostA", Space: "lab1",
		Description: wsdl.Description{
			Name: "smart-media-player",
			Services: []wsdl.Service{{Name: "s", Ports: []wsdl.Port{{
				Name: "p", Operations: []wsdl.Operation{{Name: "play"}},
			}}}},
		},
		Components: []string{"player-ui"}, Running: true,
	}
	if err := lab1.RegisterApp(ctx, rec); err != nil {
		t.Fatal(err)
	}

	// The record replicates to lab2's center.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, found, err := lab2.LookupApp(ctx, "smart-media-player", "hostA")
		if err == nil && found {
			if !got.Running || got.Space != "lab1" {
				t.Fatalf("replicated record mangled: %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("record never replicated to lab2 (out1:\n%s\nout2:\n%s)", out1.String(), out2.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unregistration tombstones federation-wide.
	if err := lab1.UnregisterApp(ctx, "smart-media-player", "hostA"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, found, err := lab2.LookupApp(ctx, "smart-media-player", "hostA")
		if err == nil && !found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tombstone never replicated to lab2")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStandaloneServesLegacyName keeps the paper topology working: no
// -space means the center answers as "registry-center". It is a center
// with no peers, so its control plane lists snapshot heads too — none.
func TestStandaloneServesLegacyName(t *testing.T) {
	var out syncBuffer
	addr := startCenter(t, &out, "-listen", "127.0.0.1:0")
	if !strings.Contains(out.String(), "registry-center") {
		t.Fatalf("standalone banner missing: %s", out.String())
	}

	client, err := transport.ListenTCP("test-client", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.AddPeer("registry-center", addr)
	cat := registry.NewClient(client.Endpoint(), "registry-center")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cat.RegisterDevice(ctx, wsdl.DeviceProfile{Host: "h1", MemoryMB: 64}); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cat.Device(ctx, "h1"); err != nil || !found {
		t.Fatalf("device roundtrip: found=%v err=%v", found, err)
	}
	if heads, err := ctl.NewClient(client.Endpoint(), "registry-center").Snapshots(ctx); err != nil || len(heads) != 0 {
		t.Fatalf("standalone snapshots = %+v, %v; want an empty list", heads, err)
	}
}

// TestRawBundlePutIsRefused: the control plane's bundle push is the only
// way a bundle is written, so bytes sent as the retired registry
// put-bundle op must find no handler — on a standalone center and on a
// federated one — and never show up in the bundle list.
func TestRawBundlePutIsRefused(t *testing.T) {
	for _, mode := range []struct {
		name     string
		endpoint string
		args     []string
	}{
		{"standalone", "registry-center", nil},
		{"federated", cluster.CenterEndpointName("lab"), []string{"-space", "lab"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			var out syncBuffer
			addr := startCenter(t, &out, append([]string{"-listen", "127.0.0.1:0"}, mode.args...)...)
			client, err := transport.ListenTCP("test-client", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			client.AddPeer(mode.endpoint, addr)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			garbage := []byte("not a bundle")
			if err := ctl.NewClient(client.Endpoint(), mode.endpoint).PushBundle(ctx, "evil", garbage); !errors.Is(err, bundle.ErrNotBundle) {
				t.Fatalf("ctl bundle push of garbage: want ErrNotBundle, got %v", err)
			}
			payload, err := transport.EncodeSealed(struct {
				Name string
				Raw  []byte
			}{"evil", garbage})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := client.Endpoint().Request(ctx, mode.endpoint, "registry.put-bundle", payload); !errors.Is(err, transport.ErrNoHandler) {
				t.Fatalf("raw put-bundle: want ErrNoHandler, got %v", err)
			}
			infos, err := ctl.NewClient(client.Endpoint(), mode.endpoint).Bundles(ctx)
			if err != nil || len(infos) != 0 {
				t.Fatalf("bundle list after refused writes: %+v err=%v", infos, err)
			}
		})
	}
}

// TestRunRejectsBadFlags covers the flag surface.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &out, nil, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-fed-peer", "lab2=127.0.0.1:9"}, &out, nil, nil); err == nil {
		t.Fatal("-fed-peer without -space accepted")
	}
	if err := run([]string{"-space", "lab1", "-fed-peer", "garbage"}, &out, nil, nil); err == nil {
		t.Fatal("malformed -fed-peer accepted")
	}
}

// retiredStores are store fixtures in layouts a build no longer reads: a
// seed-format log file, and a standalone registry's directory in the
// registry layout.
var retiredStores = map[string]string{
	"seed-log":        "../../internal/store/testdata/seed-v0.log",
	"registry-layout": "../../internal/cluster/testdata/parent-stores/standalone",
}

// copyStore copies a store fixture — a file or a directory — to path.
func copyStore(t *testing.T, fixture, path string) {
	t.Helper()
	fi, err := os.Stat(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if fi.IsDir() {
		err = os.CopyFS(path, os.DirFS(fixture))
	} else {
		var raw []byte
		if raw, err = os.ReadFile(fixture); err == nil {
			err = os.WriteFile(path, raw, 0o644)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
}

// treeFiles reads every file under root, keyed by its path relative to
// root; a directory maps to nil.
func treeFiles(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			out[rel] = nil
			return nil
		}
		out[rel], err = os.ReadFile(p)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRetiredStoreIsRefused: mdregistry over a store in a retired layout
// exits with an error wrapping store.ErrLayout that names the converting
// commit, before it serves anything, and leaves the files as they were.
// The registry-layout fixture also holds a blob log, the one retired
// layout a build still reads; the store converts that on its own first.
func TestRetiredStoreIsRefused(t *testing.T) {
	for name, fixture := range retiredStores {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "store")
			copyStore(t, fixture, path)
			if db, err := store.Open(path); err == nil {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			before := treeFiles(t, dir)

			var out syncBuffer
			stop := make(chan struct{})
			ready := make(chan string, 1)
			errc := make(chan error, 1)
			go func() {
				errc <- run([]string{"-listen", "127.0.0.1:0", "-store", path}, &out, func(addr string) { ready <- addr }, stop)
			}()
			var err error
			select {
			case err = <-errc:
			case <-ready:
				close(stop)
				<-errc
				t.Fatalf("mdregistry served a retired store:\n%s", out.String())
			case <-time.After(10 * time.Second):
				t.Fatal("mdregistry neither served nor exited")
			}
			if !errors.Is(err, store.ErrLayout) || !strings.Contains(err.Error(), "3a28188") {
				t.Fatalf("run = %v, want store.ErrLayout naming 3a28188", err)
			}
			if strings.Contains(out.String(), "serving") {
				t.Fatalf("mdregistry printed a serving line:\n%s", out.String())
			}
			if !reflect.DeepEqual(treeFiles(t, dir), before) {
				t.Fatal("the refused run changed the store's files")
			}
		})
	}
}
