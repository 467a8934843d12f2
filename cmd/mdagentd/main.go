// Command mdagentd runs one MDAgent host node over real TCP: a migration
// engine, a media library server, a registry-center client, and (in
// federated mode) a gossip membership node. Two or more nodes plus one or
// more mdregistry centers form a multi-process deployment of the paper's
// testbed.
//
// Terminal 1 — the registry center:
//
//	mdregistry -listen 127.0.0.1:7001
//
// Terminal 2 — the destination host (installs the player skeleton):
//
//	mdagentd -host hostB -listen 127.0.0.1:7003 -registry 127.0.0.1:7001 \
//	         -install smart-media-player
//
// Terminal 3 — the source host, which runs the player and migrates it:
//
//	mdagentd -host hostA -listen 127.0.0.1:7002 -registry 127.0.0.1:7001 \
//	         -peer hostB=127.0.0.1:7003 -run smart-media-player \
//	         -song-bytes 2000000 -migrate-to hostB
//
// Federated mode adds -space (the host's smart space, whose mdregistry
// center must run with the same -space) and SWIM gossip membership with
// every -peer host: the daemon prints alive/suspect/dead transitions as
// the failure detector sees them. With -replicate, -write-concern
// one|quorum stamps every snapshot put with a durability header: the
// center acks only after enough peer centers hold the write, so captured
// state survives the center dying before its next federation push.
//
// -migrate-to goes through the host runtime, the same entry point as
// `mdctl migrate`: it refuses an app that is not running here with
// ctl.ErrAppNotFound and publishes app.migrated (or app.migrate-failed)
// on the host's kernel. Durations it prints are wall-clock (no simulated
// testbed in multi-process mode); use cmd/mdbench for the paper's
// calibrated numbers.
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

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/demoapps"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// skeletonApps are the compiled-in demo-app skeletons by name — the
// single source of truth for what -install accepts.
func skeletonApps() map[string]func(host string) *app.Application {
	return map[string]func(host string) *app.Application{
		"smart-media-player":   demoapps.MediaPlayerSkeleton,
		"ubiquitous-slideshow": demoapps.SlideShowSkeleton,
	}
}

type peerList map[string]string

func (p peerList) String() string {
	parts := make([]string, 0, len(p))
	for k, v := range p {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (p peerList) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=addr, got %q", v)
	}
	p[name] = addr
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
		log.Fatalf("mdagentd: %v", err)
	}
}

// run is the testable body of mdagentd. It reports the bound listen
// address through ready (when non-nil), then serves until stop closes —
// except in -migrate-to mode, which returns right after the migration.
func run(args []string, out io.Writer, ready func(addr string), stop <-chan struct{}) error {
	fs := flag.NewFlagSet("mdagentd", flag.ContinueOnError)
	fs.SetOutput(out)
	host := fs.String("host", "hostA", "this node's host id")
	listen := fs.String("listen", "127.0.0.1:7002", "TCP listen address")
	regAddr := fs.String("registry", "127.0.0.1:7001", "registry center address")
	space := fs.String("space", "", "smart space (federated mode: registry is registry@<space>, gossip membership on)")
	peers := peerList{}
	fs.Var(peers, "peer", "peer host mapping name=addr (repeatable)")
	install := fs.String("install", "", "install an app skeleton: smart-media-player or ubiquitous-slideshow")
	runApp := fs.String("run", "", "run a full app: smart-media-player")
	songBytes := fs.Int64("song-bytes", 2_000_000, "synthetic song size for -run")
	migrateTo := fs.String("migrate-to", "", "after startup, follow-me the running app to this host and exit")
	static := fs.Bool("static", false, "use static (whole-app) binding for -migrate-to")
	probe := fs.Duration("probe", 0, "gossip probe interval (federated mode; 0 = default)")
	suspicion := fs.Duration("suspicion", 0, "gossip suspect->dead window (federated mode; 0 = default)")
	replicate := fs.Duration("replicate", 0, "stream application snapshots to the space center on this interval (federated mode; 0 = off)")
	concern := fs.String("write-concern", "", "write concern requested on every snapshot put: async, one, or quorum (empty = center default; needs -replicate)")
	debugAddr := fs.String("debug-addr", "", "HTTP debug listen address: /metrics, /healthz, /debug/pprof (empty = off)")
	trusted := bundle.TrustList{}
	fs.Var(&trusted, "trust-key", "trusted bundle publisher key, hex ed25519 public key (repeatable; none = refuse every bundle)")
	secretsFile := fs.String("secrets-file", "", "key=value file resolving bundle ref://file/... secret references")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wc, err := cluster.ParseWriteConcern(*concern)
	if err != nil {
		return err
	}
	if *concern != "" && (*space == "" || *replicate <= 0) {
		return fmt.Errorf("-write-concern %s requires -space and -replicate (it stamps snapshot puts)", wc)
	}
	var secrets bundle.Resolver
	if *secretsFile != "" {
		secrets, err = bundle.LoadSecretsFile(*secretsFile)
		if err != nil {
			return err
		}
	}
	skeletons := skeletonApps()
	if *install != "" {
		if _, ok := skeletons[*install]; !ok {
			return fmt.Errorf("unknown -install %q", *install)
		}
	}
	if *runApp != "" && *runApp != "smart-media-player" {
		return fmt.Errorf("unknown -run %q", *runApp)
	}

	node, err := transport.ListenTCP(migrate.EndpointName(*host), *listen)
	if err != nil {
		return err
	}
	defer node.Close()
	registryName := "registry-center"
	if *space != "" {
		registryName = cluster.CenterEndpointName(*space)
	}
	node.AddPeer(registryName, *regAddr)
	for name, addr := range peers {
		node.AddPeer(migrate.EndpointName(name), addr)
		node.AddPeer(migrate.MediaEndpointName(name), addr)
	}

	// The media library shares the node's endpoint: media.* and migrate.*
	// message types coexist on one handler table. The alias makes the
	// node answer requests addressed to its media name — peers map
	// media@<host> to this same address, and without the alias those
	// requests would be silently dropped (the sender hangs to deadline).
	node.AddAlias(migrate.MediaEndpointName(*host))
	lib := media.NewLibrary(*host)
	media.ServeLibrary(lib, node.Endpoint())

	cat := registry.NewClient(node.Endpoint(), registryName)
	// The device profile the daemon registers is the one its engine adapts
	// every arrival to.
	dev := wsdl.DeviceProfile{
		Host: *host, ScreenWidth: 1024, ScreenHeight: 768,
		MemoryMB: 512, HasAudio: true, HasDisplay: true,
	}
	eng := migrate.NewEngine(*host, dev, node.Endpoint(), nil, nil, cat, migrate.DefaultCosts())

	// The daemon's local context kernel feeds the control plane's Watch
	// stream: membership transitions, replication publishes, and
	// lifecycle outcomes all surface here as typed events.
	kernel := ctxkernel.NewKernel()

	// This process is one host: the same runtime an in-process deployment
	// holds per simulated host, over the TCP endpoint and registry client.
	rt := core.NewHostRuntime(*host, *space, eng, lib, cat, kernel, &vclock.Real{}, "ctl", trusted, secrets)

	// Federated mode: gossip membership with every peer host, multiplexed
	// onto the engine endpoint.
	var member *cluster.Node
	if *space != "" {
		member = cluster.NewNode(cluster.Member{ID: *host, Space: *space}, node.Endpoint(), cluster.Config{
			ProbeInterval:    *probe,
			SuspicionTimeout: *suspicion,
		})
		member.OnChange(func(_ *cluster.Node, m cluster.Member) {
			fmt.Fprintf(out, "mdagentd[%s]: member %s -> %s (incarnation %d)\n", *host, m.ID, m.State, m.Incarnation)
			kernel.PublishTyped("cluster", ctxkernel.MemberEvent{
				Host: m.ID, Space: m.Space, State: m.State.String(),
				Incarnation: m.Incarnation, At: time.Now(),
			})
		})
		for name := range peers {
			member.Join(cluster.Member{ID: name, Endpoint: migrate.EndpointName(name)})
		}
		member.Start()
		defer member.Stop()
		// A (re)starting daemon announces itself: peers that convicted a
		// previous incarnation of this host hold death certificates that
		// only an alive rumor with a higher incarnation clears. Rejoin
		// bumps ours and pings every peer so the refutation lands now; the
		// periodic dead-member probe covers later silent reconnections,
		// e.g. a healed network partition.
		member.Rejoin()
		fmt.Fprintf(out, "mdagentd[%s]: rejoined membership (incarnation %d)\n", *host, member.Self().Incarnation)
	}

	// State replication over the wire: the daemon's replicator publishes
	// delta-pipelined snapshot puts to the space center through the same
	// TCP endpoint its registry traffic uses, so a multi-process
	// deployment joins the state pipeline (and failover restores) exactly
	// like an in-process one.
	var snapCli *cluster.SnapshotClient
	if *space != "" {
		// The snapshot client doubles as the control plane's window onto
		// the center's replicated snapshot heads, so it exists in every
		// federated deployment, replicating or not.
		snapCli = cluster.NewSnapshotClient(node.Endpoint(), registryName)
	}
	if *space != "" && *replicate > 0 {
		// Every put carries the requested write concern as its wire
		// header; the center blocks the put until enough peer centers
		// acked, and answers NotDurable in-band on shortfall so the
		// replicator re-queues instead of advancing its acked base. An
		// empty flag sends no header and defers to the center's default.
		if *concern != "" {
			snapCli.SetWriteConcern(wc)
		}
		rep := state.NewReplicator(*host, *space, eng.Apps, snapCli, nil, *replicate, state.Tuning{})
		// A failed sweep prints once per distinct error, so a center that
		// refuses every put (an older build refusing a newer frame
		// version) says why without a line per tick.
		var lastErr string
		rep.OnError(func(err error) {
			if msg := err.Error(); msg != lastErr {
				lastErr = msg
				fmt.Fprintf(out, "mdagentd[%s]: replication failed: %v\n", *host, err)
			}
		})
		rt.StartReplicator(rep)
		defer rt.Replicator.Stop()
		if wc != cluster.WriteAsync {
			fmt.Fprintf(out, "mdagentd[%s]: replicating application state every %v (write concern %s)\n", *host, *replicate, wc)
		} else {
			fmt.Fprintf(out, "mdagentd[%s]: replicating application state every %v\n", *host, *replicate)
		}
	}

	// Control plane: the daemon answers the versioned ctl protocol on its
	// existing endpoint under the well-known "ctl" alias, so an operator
	// (cmd/mdctl) needs only the listen address to run, stop, migrate,
	// inspect, and watch this host. Lifecycle goes to the host runtime,
	// views come from the center, and an admitted bundle push is forwarded
	// to the center's own control plane, whose trust gate sees every
	// bundle write.
	node.AddAlias(ctl.Alias)
	d := core.Deployment{
		Info:      ctl.ServerInfo{Role: "host", Host: *host, Space: *space},
		Hosts:     func() []*core.HostRuntime { return []*core.HostRuntime{rt} },
		Records:   cat.Apps,
		PutBundle: ctl.NewClient(node.Endpoint(), registryName).PushBundle,
		GetBundle: func(ctx context.Context, _, name string) ([]byte, bool, error) {
			return cat.GetBundle(ctx, name)
		},
		ListBundles: cat.Bundles,
		Skeletons:   skeletons,
		Trusted:     trusted,
		Kernel:      kernel,
	}
	if member != nil {
		d.Members = member.Members
	}
	if snapCli != nil {
		d.Heads = snapCli.SnapshotHeads
	}
	backend := core.Backend(d)
	ctlSrv := ctl.NewServer(backend)
	ctlSrv.Serve(node.Endpoint())
	defer ctlSrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cat.RegisterDevice(ctx, dev); err != nil {
		return fmt.Errorf("register device: %w", err)
	}

	if *install != "" {
		if err := backend.Install(ctx, *install, ""); err != nil {
			return fmt.Errorf("register skeleton: %w", err)
		}
		fmt.Fprintf(out, "mdagentd[%s]: installed %s skeleton\n", *host, *install)
	}

	if *runApp == "smart-media-player" {
		song := media.GenerateFile("song1", *songBytes, 3)
		lib.Add(song)
		if err := rt.Run(ctx, demoapps.NewMediaPlayer(*host, song)); err != nil {
			return fmt.Errorf("run app: %w", err)
		}
		if err := cat.RegisterResource(ctx, demoapps.MusicResource(song, *host)); err != nil {
			return fmt.Errorf("register resource: %w", err)
		}
		fmt.Fprintf(out, "mdagentd[%s]: running smart-media-player (%d-byte song)\n", *host, *songBytes)
	}

	if *migrateTo != "" {
		binding := migrate.BindingAdaptive
		if *static {
			binding = migrate.BindingStatic
		}
		mctx, mcancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer mcancel()
		rep, err := rt.Migrate(mctx, "smart-media-player", *migrateTo, binding)
		if err != nil {
			return fmt.Errorf("migrate: %w", err)
		}
		fmt.Fprintf(out, "mdagentd[%s]: migrated smart-media-player to %s (%s binding)\n", *host, *migrateTo, binding)
		fmt.Fprintf(out, "  suspend %v, migrate %v, resume %v, total %v, %d bytes, carried %v\n",
			rep.Suspend, rep.Migrate, rep.Resume, rep.Total(), rep.BytesMoved, rep.Carried)
		return nil
	}

	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, nil)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(out, "mdagentd[%s]: debug on %s\n", *host, dbg.Addr())
	}

	fmt.Fprintf(out, "mdagentd[%s]: serving on %s (registry %s)\n", *host, node.Addr(), *regAddr)
	if ready != nil {
		ready(node.Addr())
	}
	<-stop

	// Graceful leave: flush any captured-but-unpublished state to the
	// center, then broadcast an intentional-leave death certificate so
	// peers convict this host immediately instead of burning a suspicion
	// window on it. Both steps are best-effort — a SIGTERM race with a
	// dead center must not hang the shutdown.
	if rt.Replicator != nil {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = rt.Replicator.SyncNow(sctx)
		scancel()
	}
	if member != nil {
		member.Leave()
		fmt.Fprintf(out, "mdagentd[%s]: announced leave (incarnation %d)\n", *host, member.Self().Incarnation)
	}
	fmt.Fprintf(out, "mdagentd[%s]: shutting down\n", *host)
	return nil
}
