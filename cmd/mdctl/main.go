// Command mdctl is the operator CLI for MDAgent's versioned control
// plane. It speaks the typed ctl protocol to any serving daemon —
// mdagentd (host lifecycle, membership, stats) or mdregistry (registry
// views, snapshot heads, durability events) — addressed only by its
// listen address: every control-plane server answers the well-known
// "ctl" endpoint alias.
//
//	mdctl -server 127.0.0.1:7002 info
//	mdctl -server 127.0.0.1:7002 members
//	mdctl -server 127.0.0.1:7002 ps
//	mdctl -server 127.0.0.1:7001 snapshots
//	mdctl -server 127.0.0.1:7002 stats
//	mdctl -server 127.0.0.1:7002 run smart-media-player
//	mdctl -server 127.0.0.1:7002 migrate smart-media-player hostB
//	mdctl -server 127.0.0.1:7002 stop smart-media-player
//	mdctl -server 127.0.0.1:7002 watch -filter 'cluster.*'
//	mdctl -server 127.0.0.1:7002 -json watch -count 1 -filter app.migrated
//
// -json emits machine-readable output: one JSON document per command,
// or one JSON object per line for watch. watch streams server-pushed
// typed events until interrupted, -count events arrive, or -for
// elapses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"mdagent/internal/ctl"
	"mdagent/internal/transport"
)

func main() {
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()
	switch err := run(os.Args[1:], os.Stdout, stop); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	default:
		log.Fatalf("mdctl: %v", err)
	}
}

const usage = `usage: mdctl [flags] <command> [args]

commands:
  info                      describe the server (role, host, space, protocol)
  members                   list the gossip membership view with incarnations
  ps                        list application records with snapshot metadata
  snapshots                 list replicated snapshot heads (chain, durability)
  stats                     replication counters per host
  metrics                   dump the server's obs metrics registry
  trace <app>               print the app's latest migration timeline
  run <app>                 run an installed application skeleton
  stop <app>                gracefully stop a running application
  install <app>             install an application skeleton
  migrate <app> <dest>      follow-me a running application to dest host
  bundle <subcommand>       pack, inspect, push, list, and install signed app
                            bundles (run "mdctl bundle" for subcommand help)
  watch                     stream typed events (see -filter, -count, -for, -from-seq)
`

// run is the testable body of mdctl.
func run(args []string, out io.Writer, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("mdctl", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() { fmt.Fprint(out, usage); fs.PrintDefaults() }
	server := fs.String("server", "127.0.0.1:7002", "control-plane server address (an mdagentd or mdregistry -listen address)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout")
	jsonOut := fs.Bool("json", false, "machine-readable JSON output (watch: one object per line)")
	filter := fs.String("filter", "*", "watch: topic pattern — exact topic, \"prefix.*\", or \"*\"")
	count := fs.Int("count", 0, "watch: exit after this many events (0 = until interrupted)")
	forDur := fs.Duration("for", 0, "watch: exit after this duration (0 = until interrupted)")
	fromSeq := fs.Uint64("from-seq", 0, "watch: replay the stream from this sequence number (0 = live from now)")
	static := fs.Bool("static", false, "migrate: static (whole-app) binding instead of adaptive")
	host := fs.String("host", "", "run/stop/install: target host (default: the serving host)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		fs.Usage()
		return fmt.Errorf("missing command")
	}
	// Flags may also follow the subcommand (mdctl watch -count 1).
	if err := fs.Parse(fs.Args()[1:]); err != nil {
		return err
	}

	// The CLI is itself a transport node: it dials the server's address
	// and addresses the well-known ctl alias; watch pushes flow back on
	// the same connection (the server's learned reply route).
	name := fmt.Sprintf("mdctl-%d-%d", os.Getpid(), time.Now().UnixNano()%100000)
	node, err := transport.ListenTCP(name, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer node.Close()
	node.AddPeer(ctl.Alias, *server)
	cli := ctl.NewClient(node.Endpoint(), ctl.Alias)
	// -timeout also bounds watch's subscribe request (the stream itself
	// runs until interrupted / -count / -for).
	cli.SubscribeTimeout = *timeout

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	emit := func(v any) error {
		if !*jsonOut {
			return nil
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}

	switch cmd {
	case "info":
		info, err := cli.Info(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(info)
		}
		fmt.Fprintf(out, "role %s proto %d host %q space %q\n", info.Role, info.Proto, info.Host, info.Space)
		return nil

	case "members":
		members, err := cli.Members(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(members)
		}
		fmt.Fprintf(out, "%-16s %-12s %-8s %s\n", "HOST", "SPACE", "STATE", "INCARNATION")
		for _, m := range members {
			fmt.Fprintf(out, "%-16s %-12s %-8s %d\n", m.ID, m.Space, m.State, m.Incarnation)
		}
		return nil

	case "ps":
		apps, err := cli.Apps(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(apps)
		}
		fmt.Fprintf(out, "%-24s %-14s %-10s %-8s %-22s %s\n", "APP", "HOST", "SPACE", "RUNNING", "SNAPSHOT", "COMPONENTS")
		for _, a := range apps {
			snap := "-"
			if a.Snapshot != nil {
				durable := ""
				if a.Snapshot.Durable {
					durable = " durable"
				}
				snap = fmt.Sprintf("seq %d +%dΔ%s", a.Snapshot.Seq, a.Snapshot.Chain, durable)
			}
			fmt.Fprintf(out, "%-24s %-14s %-10s %-8v %-22s %s\n",
				a.Name, a.Host, a.Space, a.Running, snap, strings.Join(a.Components, ","))
		}
		return nil

	case "snapshots":
		heads, err := cli.Snapshots(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(heads)
		}
		fmt.Fprintf(out, "%-24s %-14s %-10s %-6s %-6s %-6s %-10s %s\n", "APP", "HOST", "SPACE", "SEQ", "BASE", "CHAIN", "BYTES", "DURABLE")
		for _, h := range heads {
			fmt.Fprintf(out, "%-24s %-14s %-10s %-6d %-6d %-6d %-10d %v\n",
				h.App, h.Host, h.Space, h.Seq, h.BaseSeq, h.Chain, h.Bytes, h.Durable)
		}
		return nil

	case "stats":
		stats, err := cli.Stats(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(stats)
		}
		// REBASELINES: full frames a host sent because its center
		// refused a delta (a full chain, or a base the center lost).
		fmt.Fprintf(out, "%-14s %-9s %-6s %-7s %-10s %-13s %-11s %s\n",
			"HOST", "PUBLISHES", "FULL", "DELTA", "BYTES", "SKIPPED-CLEAN", "REBASELINES", "NOT-DURABLE")
		for _, s := range stats {
			fmt.Fprintf(out, "%-14s %-9d %-6d %-7d %-10d %-13d %-11d %d\n",
				s.Host, s.Stats.Publishes, s.Stats.FullFrames, s.Stats.DeltaFrames,
				s.Stats.BytesPublished, s.Stats.SkippedClean, s.Stats.Rebaselines, s.Stats.NotDurable)
		}
		return nil

	case "metrics":
		samples, err := cli.Metrics(ctx)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(samples)
		}
		fmt.Fprintf(out, "%-58s %-10s %s\n", "METRIC", "TYPE", "VALUE")
		for _, s := range samples {
			val := fmt.Sprintf("%d", s.Value)
			if s.Type == "histogram" {
				val = fmt.Sprintf("count %d mean %v", s.Count, s.Mean())
			}
			fmt.Fprintf(out, "%-58s %-10s %s\n", s.ID(), s.Type, val)
		}
		return nil

	case "trace":
		appName := fs.Arg(0)
		if appName == "" {
			return fmt.Errorf("usage: mdctl trace <app>")
		}
		tr, err := cli.Trace(ctx, appName)
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(tr)
		}
		route := ""
		if tr.From != "" || tr.To != "" {
			route = fmt.Sprintf(" %s -> %s", tr.From, tr.To)
		}
		fmt.Fprintf(out, "trace %s app %s%s (complete: %v)\n", tr.ID, tr.App, route, tr.Complete())
		fmt.Fprintf(out, "%-10s %-14s %-12s %-14s %s\n", "PHASE", "HOST", "OFFSET", "DURATION", "NOTE")
		for _, sp := range tr.Spans {
			fmt.Fprintf(out, "%-10s %-14s %-12v %-14v %s\n",
				sp.Phase, sp.Host, sp.Start.Sub(tr.Start).Round(time.Microsecond), sp.Dur.Round(time.Microsecond), sp.Note)
		}
		return nil

	case "run", "stop", "install":
		appName := fs.Arg(0)
		if appName == "" {
			return fmt.Errorf("usage: mdctl %s <app>", cmd)
		}
		var opErr error
		switch cmd {
		case "run":
			opErr = cli.RunApp(ctx, appName, *host)
		case "stop":
			opErr = cli.StopApp(ctx, appName, *host)
		case "install":
			opErr = cli.InstallApp(ctx, appName, *host)
		}
		if opErr != nil {
			// An install refused with the typed unknown-app sentinel gets
			// the remedy spelled out: the host has neither a compiled-in
			// skeleton nor a pushed bundle for this name.
			if cmd == "install" && errors.Is(opErr, ctl.ErrUnknownApp) {
				hint := fmt.Sprintf("no skeleton or bundle for %q on the server; pack and push one first: "+
					"mdctl bundle pack -spec app.json -key publisher.key -out app.mdab, then mdctl bundle push app.mdab", appName)
				if *jsonOut {
					_ = emit(map[string]string{"op": cmd, "app": appName, "result": "error", "error": opErr.Error(), "hint": hint})
				}
				return fmt.Errorf("%w\n  hint: %s", opErr, hint)
			}
			if *jsonOut {
				_ = emit(map[string]string{"op": cmd, "app": appName, "result": "error", "error": opErr.Error()})
			}
			return opErr
		}
		if *jsonOut {
			return emit(map[string]string{"op": cmd, "app": appName, "result": "ok"})
		}
		fmt.Fprintf(out, "%s %s: ok\n", cmd, appName)
		return nil

	case "migrate":
		appName, dest := fs.Arg(0), fs.Arg(1)
		if appName == "" || dest == "" {
			return fmt.Errorf("usage: mdctl migrate <app> <dest-host>")
		}
		res, err := cli.Migrate(ctx, ctl.MigrateRequest{App: appName, To: dest, Static: *static})
		if err != nil {
			return err
		}
		if *jsonOut {
			return emit(res)
		}
		fmt.Fprintf(out, "migrated %s -> %s: suspend %v, migrate %v, resume %v, total %v, %d bytes (delta: %v)\n",
			res.App, res.To, res.Suspend, res.Migrate, res.Resume, res.Total(), res.BytesMoved, res.Delta)
		return nil

	case "bundle":
		// After the re-parse above, fs.Args() starts at the subcommand.
		return bundleCmd(ctx, fs.Args(), cli, out, *jsonOut, *host)

	case "watch":
		return watch(cli, out, stop, *jsonOut, *filter, *count, *forDur, *fromSeq)
	}
	fs.Usage()
	return fmt.Errorf("unknown command %q", cmd)
}

// watchLine is the machine-readable form of one streamed event.
type watchLine struct {
	Topic  string            `json:"topic"`
	Source string            `json:"source,omitempty"`
	At     time.Time         `json:"at"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	Seq    uint64            `json:"seq,omitempty"`
	Lost   uint64            `json:"lost,omitempty"`
}

// watch streams events until stop closes, n events arrived (n > 0), or
// d elapsed (d > 0). fromSeq > 0 asks the server to replay from that
// sequence number; when the ring aged the seq out, the watch degrades to
// live with a warning rather than failing — the operator asked to see
// events, not to see an exit code.
func watch(cli *ctl.Client, out io.Writer, stop <-chan struct{}, jsonOut bool, pattern string, n int, d time.Duration, fromSeq uint64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	events, err := cli.WatchFrom(ctx, pattern, fromSeq)
	if fromSeq > 0 && errors.Is(err, ctl.ErrReplayGap) {
		fmt.Fprintf(os.Stderr, "mdctl: replay from seq %d unavailable (%v); watching live from now\n", fromSeq, err)
		events, err = cli.Watch(ctx, pattern)
	}
	if err != nil {
		return err
	}
	// The subscription is live once Watch returns; announce it so
	// scripts (and the e2e suite) can sequence actions after it.
	enc := json.NewEncoder(out)
	if jsonOut {
		if err := enc.Encode(map[string]string{"watching": pattern}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "watching %s\n", pattern)
	}
	seen := 0
	for ev := range events {
		if jsonOut {
			if err := enc.Encode(watchLine{
				Topic: ev.Event.Topic, Source: ev.Event.Source,
				At: ev.Event.At, Attrs: ev.Event.Attrs, Seq: ev.Seq, Lost: ev.Lost,
			}); err != nil {
				return err
			}
		} else {
			keys := make([]string, 0, len(ev.Event.Attrs))
			for k := range ev.Event.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var sb strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&sb, " %s=%s", k, ev.Event.Attrs[k])
			}
			lost := ""
			if ev.Lost > 0 {
				lost = fmt.Sprintf(" (lost %d)", ev.Lost)
			}
			fmt.Fprintf(out, "%s %s%s%s\n", ev.Event.At.Format(time.RFC3339Nano), ev.Event.Topic, sb.String(), lost)
		}
		seen++
		if n > 0 && seen >= n {
			return nil
		}
	}
	return nil
}
