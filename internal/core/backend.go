package core

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sort"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/migrate"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// Deployment is what one control-plane endpoint can see and drive — the
// only part of the control plane that differs between the in-process
// Middleware, a host daemon (cmd/mdagentd) and a registry center
// (cmd/mdregistry). Backend builds every view and op from it. A nil
// source leaves the ops that need it unsupported.
type Deployment struct {
	// Info describes the endpoint; the server stamps the protocol version.
	Info ctl.ServerInfo
	// Hosts lists the hosts this endpoint drives, sorted by name. Nil on a
	// registry center, which runs no applications: lifecycle, bundle
	// install, stats and trace are then unsupported.
	Hosts func() []*HostRuntime
	// Members is the endpoint's gossip membership view.
	Members func() []cluster.Member
	// Records lists the installation records the endpoint's registry holds.
	Records func(ctx context.Context) ([]registry.AppRecord, error)
	// Heads lists replicated snapshot heads; an app may appear more than
	// once (several centers, mid-replication).
	Heads func(ctx context.Context) ([]state.SnapshotHead, error)
	// PutBundle stores a bundle Backend has admitted; GetBundle reads one
	// for a host of space; ListBundles lists the stored ones.
	PutBundle   func(ctx context.Context, name string, raw []byte) error
	GetBundle   func(ctx context.Context, space, name string) ([]byte, bool, error)
	ListBundles func(ctx context.Context) ([]registry.BundleInfo, error)
	// Skeletons are the compiled-in application factories by app name.
	Skeletons map[string]func(host string) *app.Application
	// Trusted are the publisher keys a pushed bundle must be signed by.
	Trusted []ed25519.PublicKey
	// Kernel is the Watch event source.
	Kernel *ctxkernel.Kernel
}

// Backend is the one implementation of the control plane's views and
// ops, over whatever d can see. Lifecycle ops address hosts one way
// everywhere: "" means the endpoint's only host (run, install) or the
// host running the app (stop, migrate), and a host the endpoint does not
// drive is ctl.ErrUnknownHost.
func Backend(d Deployment) ctl.Backend {
	b := ctl.Backend{
		Info: func(context.Context) (ctl.ServerInfo, error) { return d.Info, nil },
		Metrics: func(context.Context) ([]obs.Sample, error) {
			return obs.Default.Snapshot(), nil
		},
		Kernel: d.Kernel,
	}
	if d.Members != nil {
		b.Members = func(context.Context) ([]ctl.MemberInfo, error) {
			members := d.Members()
			out := make([]ctl.MemberInfo, 0, len(members))
			for _, m := range members {
				out = append(out, ctl.MemberInfo{
					ID: m.ID, Space: m.Space, State: m.State.String(), Incarnation: m.Incarnation,
				})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
			return out, nil
		}
	}
	if d.Records != nil {
		b.Apps = func(ctx context.Context) ([]ctl.AppInfo, error) {
			recs, err := d.Records(ctx)
			if err != nil {
				return nil, err
			}
			var heads map[string]state.SnapshotHead
			if d.Heads != nil {
				// Heads are garnish; a center hiccup must not hide the apps.
				if hs, err := d.Heads(ctx); err == nil {
					heads = freshest(hs)
				}
			}
			sort.Slice(recs, func(i, j int) bool {
				if recs[i].Host != recs[j].Host {
					return recs[i].Host < recs[j].Host
				}
				return recs[i].Name < recs[j].Name
			})
			out := make([]ctl.AppInfo, 0, len(recs))
			for _, r := range recs {
				info := ctl.AppInfo{
					Name: r.Name, Host: r.Host, Space: r.Space,
					Components: r.Components, Running: r.Running,
				}
				if h, ok := heads[r.Name]; ok {
					info.Snapshot = &h
				}
				out = append(out, info)
			}
			return out, nil
		}
	}
	if d.Heads != nil {
		b.Snapshots = func(ctx context.Context) ([]state.SnapshotHead, error) {
			hs, err := d.Heads(ctx)
			if err != nil {
				return nil, err
			}
			fresh := freshest(hs)
			out := make([]state.SnapshotHead, 0, len(fresh))
			for _, h := range fresh {
				out = append(out, h)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
			return out, nil
		}
	}
	if d.PutBundle != nil {
		b.PushBundle = func(ctx context.Context, name string, raw []byte) error {
			// The one bundle write gate: nothing is stored (or forwarded to
			// a center, which admits it again) before it opens against this
			// endpoint's trusted keys.
			if _, err := bundle.Admit(name, raw, d.Trusted); err != nil {
				return fmt.Errorf("core: %w", err)
			}
			if err := d.PutBundle(ctx, name, raw); err != nil {
				return err
			}
			bundle.Pushes.Inc()
			bundle.Bytes.Add(int64(len(raw)))
			return nil
		}
	}
	if d.ListBundles != nil {
		b.ListBundles = func(ctx context.Context) ([]ctl.BundleInfo, error) {
			infos, err := d.ListBundles(ctx)
			if err != nil {
				return nil, err
			}
			out := make([]ctl.BundleInfo, 0, len(infos))
			for _, info := range infos {
				out = append(out, ctl.BundleInfo{Name: info.Name, Bytes: info.Bytes})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
			return out, nil
		}
	}
	if d.Hosts != nil {
		hostOps(&b, d)
	}
	return b
}

// hostOps fills in the ops only an endpoint that drives hosts serves.
func hostOps(b *ctl.Backend, d Deployment) {
	// installBundle installs the stored bundle name on rt; a bundle nobody
	// pushed is the typed unknown-app refusal.
	installBundle := func(ctx context.Context, rt *HostRuntime, name string) error {
		if d.GetBundle != nil {
			raw, found, err := d.GetBundle(ctx, rt.Space, name)
			if err != nil {
				return err
			}
			if found {
				return rt.InstallBundle(ctx, name, raw)
			}
		}
		return fmt.Errorf("core: %w: %q on %s (push its bundle first)", ctl.ErrUnknownApp, name, rt.Host)
	}
	b.Stats = func(context.Context) ([]ctl.HostStats, error) {
		var out []ctl.HostStats
		for _, rt := range d.Hosts() {
			if rt.Replicator != nil {
				out = append(out, ctl.HostStats{Host: rt.Host, Stats: rt.Replicator.Stats()})
			}
		}
		return out, nil
	}
	b.Trace = func(_ context.Context, name string) (obs.MigrationTrace, error) {
		tr, ok := obs.Traces.Latest(name)
		if !ok {
			return obs.MigrationTrace{}, fmt.Errorf("core: %w: no migration trace for %q", ctl.ErrAppNotFound, name)
		}
		return tr, nil
	}
	b.RunApp = func(ctx context.Context, name, host string) error {
		rt, err := pickHost(d.Hosts(), host, "")
		if err != nil {
			return err
		}
		return rt.RunInstalled(ctx, name)
	}
	b.StopApp = func(ctx context.Context, name, host string) error {
		rt, err := pickHost(d.Hosts(), host, name)
		if err != nil {
			return err
		}
		return rt.Stop(ctx, name)
	}
	b.Migrate = func(ctx context.Context, req ctl.MigrateRequest) (ctl.MigrateResult, error) {
		rt, err := pickHost(d.Hosts(), req.Host, req.App)
		if err != nil {
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
		return ctl.MigrateResult{
			App: rep.App, From: rep.FromHost, To: rep.ToHost,
			Suspend: rep.Suspend, Migrate: rep.Migrate, Resume: rep.Resume,
			BytesMoved: rep.BytesMoved, Carried: rep.Carried, Delta: rep.Delta,
		}, nil
	}
	b.Install = func(ctx context.Context, name, host string) error {
		rt, err := pickHost(d.Hosts(), host, "")
		if err != nil {
			return err
		}
		factory, ok := rt.Engine.Factory(name)
		if !ok {
			factory, ok = d.Skeletons[name]
		}
		if !ok {
			return installBundle(ctx, rt, name)
		}
		inst := factory(rt.Host)
		return rt.Install(ctx, name, inst.Description(), inst.Components(), factory)
	}
	b.InstallBundle = func(ctx context.Context, name, host string) error {
		rt, err := pickHost(d.Hosts(), host, "")
		if err != nil {
			return err
		}
		return installBundle(ctx, rt, name)
	}
}

// pickHost resolves the host an op addresses. An empty host means the
// host running runningApp when one is named (stop, migrate), else the
// endpoint's only host (run, install).
func pickHost(hosts []*HostRuntime, host, runningApp string) (*HostRuntime, error) {
	if host == "" && runningApp != "" {
		for _, rt := range hosts {
			if _, ok := rt.Engine.App(runningApp); ok {
				return rt, nil
			}
		}
		return nil, fmt.Errorf("core: %w: %q is not running anywhere", ctl.ErrAppNotFound, runningApp)
	}
	if host == "" && len(hosts) == 1 {
		return hosts[0], nil
	}
	for _, rt := range hosts {
		if rt.Host == host {
			return rt, nil
		}
	}
	return nil, fmt.Errorf("core: %w: %q", ctl.ErrUnknownHost, host)
}

// freshest keeps the highest-Seq head per app.
func freshest(heads []state.SnapshotHead) map[string]state.SnapshotHead {
	out := make(map[string]state.SnapshotHead, len(heads))
	for _, h := range heads {
		if ex, ok := out[h.App]; !ok || h.Seq > ex.Seq {
			out[h.App] = h
		}
	}
	return out
}
