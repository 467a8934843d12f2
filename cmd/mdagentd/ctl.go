package main

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// daemonBackend builds this host daemon's control-plane surface:
// lifecycle delegated to the host runtime, introspection through the
// registry client (and, federated, the membership node + snapshot
// client), and the daemon kernel as the Watch source. Nil collaborators
// leave their operations unsupported — a standalone daemon has no
// membership view to serve.
func daemonBackend(rt *core.HostRuntime, cat *registry.Client,
	member *cluster.Node, snapCli *cluster.SnapshotClient,
	skeletons map[string]skeletonApp, kernel *ctxkernel.Kernel,
	trusted []ed25519.PublicKey) ctl.Backend {

	host := rt.Host
	// checkHost rejects operations addressed to some other host — this
	// daemon serves exactly one.
	checkHost := func(h string) error {
		if h != "" && h != host {
			return fmt.Errorf("mdagentd: %w: %q (this daemon serves %s)", ctl.ErrUnknownHost, h, host)
		}
		return nil
	}

	// installBundle installs the bundle stored at this daemon's center.
	installBundle := func(ctx context.Context, appName, h string) error {
		if err := checkHost(h); err != nil {
			return err
		}
		raw, found, err := cat.GetBundle(ctx, appName)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("mdagentd: %w: %q on %s", ctl.ErrUnknownApp, appName, host)
		}
		return rt.InstallBundle(ctx, appName, raw)
	}

	b := ctl.Backend{
		Info: func(context.Context) (ctl.ServerInfo, error) {
			return ctl.ServerInfo{Role: "host", Host: host, Space: rt.Space}, nil
		},
		RunApp: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			return rt.RunInstalled(ctx, appName)
		},
		StopApp: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			return rt.Stop(ctx, appName)
		},
		Migrate: func(ctx context.Context, req ctl.MigrateRequest) (ctl.MigrateResult, error) {
			if err := checkHost(req.Host); err != nil {
				return ctl.MigrateResult{}, err
			}
			binding := migrate.BindingAdaptive
			if req.Static {
				binding = migrate.BindingStatic
			}
			rep, err := rt.Migrate(ctx, req.App, req.To, binding)
			if err != nil {
				return ctl.MigrateResult{}, err
			}
			return core.MigrateResultOf(rep), nil
		},
		Install: func(ctx context.Context, appName, h string) error {
			sk, ok := skeletons[appName]
			if !ok {
				// No compiled-in skeleton: fall back to a bundle pushed to
				// the center. A miss there too is the typed unknown-app
				// refusal (not ErrAppNotFound — nothing is installable).
				return installBundle(ctx, appName, h)
			}
			if err := checkHost(h); err != nil {
				return err
			}
			return rt.Install(ctx, appName, sk.desc, sk.components, sk.factory)
		},
		PushBundle: func(ctx context.Context, name string, raw []byte) error {
			// Verified before forwarding: a host daemon never launders an
			// unsigned or untrusted artifact into the federation.
			if _, err := bundle.Admit(name, raw, trusted); err != nil {
				return fmt.Errorf("mdagentd: %w", err)
			}
			if err := cat.PutBundle(ctx, name, raw); err != nil {
				return err
			}
			bundle.Pushes.Inc()
			bundle.Bytes.Add(int64(len(raw)))
			return nil
		},
		ListBundles: func(ctx context.Context) ([]ctl.BundleInfo, error) {
			infos, err := cat.Bundles(ctx)
			if err != nil {
				return nil, err
			}
			out := make([]ctl.BundleInfo, 0, len(infos))
			for _, info := range infos {
				out = append(out, ctl.BundleInfo{Name: info.Name, Bytes: info.Bytes})
			}
			return out, nil
		},
		InstallBundle: installBundle,
		Apps: func(ctx context.Context) ([]ctl.AppInfo, error) {
			recs, err := cat.Apps(ctx)
			if err != nil {
				return nil, err
			}
			var heads []state.SnapshotHead
			if snapCli != nil {
				// Heads are garnish; a center hiccup must not hide the apps.
				if hs, err := snapCli.SnapshotHeads(ctx); err == nil {
					heads = hs
				}
			}
			return ctl.JoinApps(recs, heads), nil
		},
		Metrics: core.ObsMetrics,
		Trace:   core.ObsTrace,
		Kernel:  kernel,
	}
	if member != nil {
		b.Members = func(context.Context) ([]ctl.MemberInfo, error) {
			members := member.Members()
			out := make([]ctl.MemberInfo, 0, len(members))
			for _, m := range members {
				out = append(out, ctl.MemberInfo{
					ID: m.ID, Space: m.Space, State: m.State.String(), Incarnation: m.Incarnation,
				})
			}
			return out, nil
		}
	}
	if snapCli != nil {
		b.Snapshots = func(ctx context.Context) ([]state.SnapshotHead, error) {
			return snapCli.SnapshotHeads(ctx)
		}
	}
	if repl := rt.Replicator; repl != nil {
		b.Stats = func(context.Context) ([]ctl.HostStats, error) {
			return []ctl.HostStats{{Host: host, Stats: repl.Stats()}}, nil
		}
	}
	return b
}
