// Command mdregistry runs an MDAgent registry center as a standalone TCP
// service — the paper's Juddi+MySQL backend (§5). Agent nodes (cmd/
// mdagentd) register applications, resources and device profiles here and
// issue semantic lookups during migration planning.
//
// Standalone (the paper's single-center topology):
//
//	mdregistry -listen 127.0.0.1:7001 -store /var/lib/mdagent/registry
//
// Federated — one center per smart space, replicating records to its
// peers with version vectors (eventually consistent; survives any single
// center's crash):
//
//	mdregistry -listen 127.0.0.1:7001 -space lab1 -fed-peer lab2=127.0.0.1:7005
//	mdregistry -listen 127.0.0.1:7005 -space lab2 -fed-peer lab1=127.0.0.1:7001
//
// -write-concern one|quorum makes every federated write block until that
// many peer centers acknowledged the pushed record, so a record survives
// this center dying right after the write returns (durable-by-write).
//
// Standalone centers serve the endpoint name "registry-center"; federated
// centers serve "registry@<space>" (point mdagentd's -registry and -space
// flags accordingly). Both are the same cluster.Center: a standalone
// registry is a center with no peers, so both serve the same registry and
// snapshot ops and keep one durable copy of each record under the store's
// fed/ keys. A store in a layout this build no longer reads (DESIGN.md §2)
// stops mdregistry with an error wrapping store.ErrLayout before it serves
// anything; the error names the commit whose build converts that store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
)

// fedPeers accumulates repeated -fed-peer space=addr flags.
type fedPeers map[string]string

func (p fedPeers) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (p fedPeers) Set(v string) error {
	space, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want space=addr, got %q", v)
	}
	p[space] = addr
	return nil
}

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	switch err := run(os.Args[1:], os.Stdout, nil, stop); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		log.Fatalf("mdregistry: %v", err)
	}
}

// run is the testable body of mdregistry: it parses args, serves until
// stop closes, and reports the bound listen address through ready (when
// non-nil) once the center is reachable.
func run(args []string, out io.Writer, ready func(addr string), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("mdregistry", flag.ContinueOnError)
	fs.SetOutput(out)
	listen := fs.String("listen", "127.0.0.1:7001", "TCP listen address")
	storePath := fs.String("store", "", "storage engine directory (empty = in-memory)")
	storeSync := fs.String("store-sync", "interval", "WAL fsync policy: always, interval, or never")
	space := fs.String("space", "", "smart space served by this center (empty = standalone)")
	peers := fedPeers{}
	fs.Var(peers, "fed-peer", "federated peer center space=addr (repeatable; requires -space)")
	concern := fs.String("write-concern", "", "federation write durability: async (default), one, or quorum (requires -space)")
	debugAddr := fs.String("debug-addr", "", "HTTP debug listen address: /metrics, /healthz, /debug/pprof (empty = off)")
	trusted := bundle.TrustList{}
	fs.Var(&trusted, "trust-key", "trusted bundle publisher key, hex ed25519 public key (repeatable; none = refuse every bundle push)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *space == "" && len(peers) > 0 {
		return fmt.Errorf("-fed-peer requires -space")
	}
	wc, err := cluster.ParseWriteConcern(*concern)
	if err != nil {
		return err
	}
	if *space == "" && wc != cluster.WriteAsync {
		return fmt.Errorf("-write-concern %s requires -space (a standalone registry has no peers to ack)", wc)
	}

	var db *store.Store // nil: a volatile center
	if *storePath != "" {
		pol, err := store.ParseSyncPolicy(*storeSync)
		if err != nil {
			return err
		}
		if db, err = store.Open(*storePath, store.WithSyncPolicy(pol)); err != nil {
			return err
		}
		defer db.Close()
	}

	endpoint := "registry-center"
	if *space != "" {
		endpoint = cluster.CenterEndpointName(*space)
	}
	node, err := transport.ListenTCP(endpoint, *listen)
	if err != nil {
		return err
	}
	defer node.Close()

	// The center's local kernel feeds the control plane's Watch stream
	// (durability outcomes, for now); the ctl alias lets an operator
	// reach the control plane knowing only the listen address.
	kernel := ctxkernel.NewKernel()
	node.AddAlias(ctl.Alias)

	// Standalone is a center with no peers.
	center, err := cluster.NewCenter(*space, db, node.Endpoint(), cluster.Config{WriteConcern: wc})
	if err != nil {
		return fmt.Errorf("%s: %w", *storePath, err)
	}
	for peerSpace, addr := range peers {
		peerEndpoint := cluster.CenterEndpointName(peerSpace)
		node.AddPeer(peerEndpoint, addr)
		center.AddPeer(peerSpace, peerEndpoint)
	}
	center.OnDurability(func(ev cluster.DurabilityEvent) {
		kernel.PublishTyped("cluster", ctxkernel.FederationWriteEvent{
			Space: *space, Key: ev.Key, Concern: string(ev.Concern),
			Acked: ev.Acked, Required: ev.Required,
			Durable: ev.Durable, Degraded: ev.Degraded, At: time.Now(),
		})
	})
	center.Serve(node.Endpoint())
	center.Start()
	defer center.Stop()

	// The center's control plane: its records, snapshot heads, the bundle
	// store and its trust gate, the Watch stream. No hosts: a registry
	// center runs no applications, so lifecycle ops are unsupported.
	d := core.Deployment{
		Info:    ctl.ServerInfo{Role: "registry", Space: *space},
		Records: func(context.Context) ([]registry.AppRecord, error) { return center.Apps(nil), nil },
		Heads:   func(context.Context) ([]state.SnapshotHead, error) { return center.SnapshotHeads(), nil },
		// A durability shortfall still stored the bundle locally;
		// anti-entropy finishes the fan-out (same contract as the
		// registry write handlers).
		PutBundle: func(ctx context.Context, name string, raw []byte) error {
			return state.IgnoreNotDurable(center.PutBundle(ctx, name, raw))
		},
		ListBundles: center.Bundles,
		Trusted:     trusted,
		Kernel:      kernel,
	}
	banner := fmt.Sprintf("mdregistry: serving registry-center on %s (store: %s)", node.Addr(), storeDesc(*storePath))
	if *space != "" {
		banner = fmt.Sprintf("mdregistry: serving %s on %s, federated with %d peer(s) (store: %s, write concern: %s)",
			endpoint, node.Addr(), len(peers), storeDesc(*storePath), wc)
	}
	ctlSrv := ctl.NewServer(core.Backend(d))
	ctlSrv.Serve(node.Endpoint())
	defer ctlSrv.Close()
	fmt.Fprintln(out, banner)

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "mdregistry: debug on %s\n", dbg.Addr())
	}

	if ready != nil {
		ready(node.Addr())
	}
	<-stop
	fmt.Fprintln(out, "mdregistry: shutting down")
	return nil
}

func storeDesc(path string) string {
	if path == "" {
		return "in-memory"
	}
	return path
}
