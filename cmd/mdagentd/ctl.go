package main

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/core"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/owl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// daemonBackend builds this host daemon's control-plane surface:
// lifecycle on the local engine, introspection through the registry
// client (and, federated, the membership node + snapshot client), and
// the daemon kernel as the Watch source. Nil collaborators leave their
// operations unsupported — a standalone daemon has no membership view
// to serve.
func daemonBackend(host, space string, eng *migrate.Engine, cat *registry.Client,
	member *cluster.Node, snapCli *cluster.SnapshotClient, repl *state.Replicator,
	skeletons map[string]skeletonApp, kernel *ctxkernel.Kernel,
	trusted []ed25519.PublicKey, secrets bundle.Resolver) ctl.Backend {

	// checkHost rejects operations addressed to some other host — this
	// daemon serves exactly one.
	checkHost := func(h string) error {
		if h != "" && h != host {
			return fmt.Errorf("mdagentd: %w: %q (this daemon serves %s)", ctl.ErrUnknownHost, h, host)
		}
		return nil
	}

	// installFromBundle assembles an application factory from a bundle
	// stored at the center — the generic install arm: no compiled-in
	// skeleton needed, the signed manifest is the skeleton.
	installFromBundle := func(ctx context.Context, appName string) error {
		raw, found, err := cat.GetBundle(ctx, appName)
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("mdagentd: %w: %q on %s", ctl.ErrUnknownApp, appName, host)
		}
		b, err := bundle.Admit(appName, raw, trusted)
		if err != nil {
			return fmt.Errorf("mdagentd: %w", err)
		}
		factory, err := bundle.Instantiate(b, secrets)
		if err != nil {
			bundle.Rejected.Inc()
			return fmt.Errorf("mdagentd: instantiate bundle %q: %w", appName, err)
		}
		eng.InstallFactory(appName, factory)
		components := make([]string, 0, len(b.Manifest.Components))
		for _, spec := range b.Manifest.Components {
			components = append(components, spec.Name)
		}
		if err := cat.RegisterApp(ctx, registry.AppRecord{
			Name: appName, Host: host, Space: space,
			Description: b.Manifest.Description, Components: components,
		}); err != nil {
			return err
		}
		bundle.Installs.Inc()
		return nil
	}

	b := ctl.Backend{
		Info: func(context.Context) (ctl.ServerInfo, error) {
			return ctl.ServerInfo{Role: "host", Host: host, Space: space}, nil
		},
		RunApp: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			factory, ok := eng.Factory(appName)
			if !ok {
				return fmt.Errorf("mdagentd: %w: no skeleton for %q installed on %s", ctl.ErrAppNotFound, appName, host)
			}
			inst := factory(host)
			if err := eng.Run(inst); err != nil {
				return err
			}
			if repl != nil {
				repl.Reinstate(appName)
			}
			if err := cat.RegisterApp(ctx, registry.AppRecord{
				Name: appName, Host: host, Space: space,
				Description: inst.Description(), Components: inst.Components(),
				Running: true,
			}); err != nil {
				return err
			}
			kernel.PublishTyped("ctl", ctxkernel.AppStartedEvent{App: appName, Host: host, At: time.Now()})
			return nil
		},
		StopApp: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			inst, ok := eng.App(appName)
			if !ok {
				return fmt.Errorf("mdagentd: %w: no running app %q on %s", ctl.ErrAppNotFound, appName, host)
			}
			if inst.State() == app.Running {
				if err := inst.Suspend(); err != nil {
					return err
				}
			}
			// Tombstone the replicated snapshot before unregistering, and
			// remove from the engine last, mirroring the in-process
			// StopApp's retry-safe ordering.
			if repl != nil {
				if err := repl.Retire(ctx, appName); err != nil {
					return err
				}
			}
			if err := cat.UnregisterApp(ctx, appName, host); err != nil {
				return err
			}
			eng.Remove(appName)
			kernel.PublishTyped("ctl", ctxkernel.AppStoppedEvent{App: appName, Host: host, At: time.Now()})
			return nil
		},
		Migrate: func(ctx context.Context, req ctl.MigrateRequest) (ctl.MigrateResult, error) {
			if err := checkHost(req.Host); err != nil {
				return ctl.MigrateResult{}, err
			}
			if _, ok := eng.App(req.App); !ok {
				return ctl.MigrateResult{}, fmt.Errorf("mdagentd: %w: no running app %q on %s", ctl.ErrAppNotFound, req.App, host)
			}
			binding := migrate.BindingAdaptive
			if req.Static {
				binding = migrate.BindingStatic
			}
			rep, err := eng.FollowMe(ctx, req.App, req.To, binding, owl.MatchSemantic)
			if err != nil {
				kernel.PublishTyped("ctl", ctxkernel.AppMigrateFailedEvent{
					App: req.App, Dest: req.To, Reason: "control plane", Error: err.Error(), At: time.Now(),
				})
				return ctl.MigrateResult{}, err
			}
			kernel.PublishTyped("ctl", ctxkernel.AppMigratedEvent{
				App: req.App, Dest: req.To, Mode: migrate.FollowMe.String(), Reason: "control plane",
				SuspendMs: rep.Suspend.Milliseconds(), MigrateMs: rep.Migrate.Milliseconds(),
				ResumeMs: rep.Resume.Milliseconds(), Bytes: rep.BytesMoved, At: time.Now(),
			})
			return ctl.MigrateResult{
				App: req.App, From: host, To: req.To,
				Suspend: rep.Suspend, Migrate: rep.Migrate, Resume: rep.Resume,
				BytesMoved: rep.BytesMoved, Carried: rep.Carried, Delta: rep.Delta,
			}, nil
		},
		Install: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			sk, ok := skeletons[appName]
			if !ok {
				// No compiled-in skeleton: fall back to a bundle pushed to
				// the center. A miss there too is the typed unknown-app
				// refusal (not ErrAppNotFound — nothing is installable).
				return installFromBundle(ctx, appName)
			}
			eng.InstallFactory(appName, sk.factory)
			if err := cat.RegisterApp(ctx, registry.AppRecord{
				Name: appName, Host: host, Space: space,
				Description: sk.desc, Components: sk.components,
			}); err != nil {
				return err
			}
			return nil
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
		InstallBundle: func(ctx context.Context, appName, h string) error {
			if err := checkHost(h); err != nil {
				return err
			}
			return installFromBundle(ctx, appName)
		},
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
	if repl != nil {
		b.Stats = func(context.Context) ([]ctl.HostStats, error) {
			return []ctl.HostStats{{Host: host, Stats: repl.Stats()}}, nil
		}
	}
	return b
}
