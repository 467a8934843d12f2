package core

import (
	"context"
	"fmt"
	"sort"

	"mdagent/internal/ctl"
	"mdagent/internal/migrate"
	"mdagent/internal/obs"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// ControlBackend exposes the full deployment to the versioned control
// plane: lifecycle (run/stop/migrate by name), introspection (members +
// incarnations, registry records joined with snapshot heads, replicator
// stats), and the kernel as the Watch event source. cmd daemons build
// their own narrower backends; this one is the in-process reference.
func (m *Middleware) ControlBackend() ctl.Backend {
	return ctl.Backend{
		Info: func(context.Context) (ctl.ServerInfo, error) {
			return ctl.ServerInfo{Role: "middleware"}, nil
		},
		Members:       m.ctlMembers,
		Apps:          m.ctlApps,
		Snapshots:     m.ctlSnapshots,
		Stats:         m.ctlStats,
		RunApp:        m.ctlRunApp,
		StopApp:       m.ctlStopApp,
		Migrate:       m.ctlMigrate,
		Install:       m.ctlInstall,
		PushBundle:    m.PushBundle,
		ListBundles:   m.ctlListBundles,
		InstallBundle: m.InstallBundle,
		Metrics:       ObsMetrics,
		Trace:         ObsTrace,
		Kernel:        m.Kernel,
	}
}

// ObsMetrics is the shared ctl.Backend.Metrics implementation: a
// snapshot of the process-wide obs registry. The cmd daemons reuse it.
func ObsMetrics(context.Context) ([]obs.Sample, error) {
	return obs.Default.Snapshot(), nil
}

// ObsTrace is the shared ctl.Backend.Trace implementation: the latest
// migration trace recorded for app in this process.
func ObsTrace(_ context.Context, app string) (obs.MigrationTrace, error) {
	tr, ok := obs.Traces.Latest(app)
	if !ok {
		return obs.MigrationTrace{}, fmt.Errorf("core: %w: no migration trace for %q", ctl.ErrAppNotFound, app)
	}
	return tr, nil
}

// ServeControl binds the control plane onto ep — tests and multi-space
// deployments may serve several endpoints from one Server.
func (m *Middleware) ServeControl(ep *transport.Endpoint) *ctl.Server {
	return ctl.NewServer(m.ControlBackend()).Serve(ep)
}

// ctlMembers reports the gossip view of the first (sorted) provisioned
// host's node — any node converges to the same table; picking one keeps
// the answer a consistent cut instead of a union of mid-gossip views.
func (m *Middleware) ctlMembers(context.Context) ([]ctl.MemberInfo, error) {
	if m.Cluster == nil {
		return nil, fmt.Errorf("%w: deployment is not clustered", ctl.ErrUnsupported)
	}
	for _, host := range m.Hosts() {
		node, ok := m.Cluster.Node(host)
		if !ok {
			continue
		}
		members := node.Members()
		out := make([]ctl.MemberInfo, 0, len(members))
		for _, mem := range members {
			out = append(out, ctl.MemberInfo{
				ID: mem.ID, Space: mem.Space,
				State: mem.State.String(), Incarnation: mem.Incarnation,
			})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out, nil
	}
	return nil, nil
}

// snapshotHeads unions every center's snapshot heads (centers converge
// via federation; mid-replication they may briefly disagree, so
// consumers pick the freshest Seq per app).
func (m *Middleware) snapshotHeads() []state.SnapshotHead {
	if m.Cluster == nil {
		return nil
	}
	var heads []state.SnapshotHead
	for _, space := range m.Cluster.Spaces() {
		center, ok := m.Cluster.Center(space)
		if !ok {
			continue
		}
		heads = append(heads, center.SnapshotHeads()...)
	}
	return heads
}

// ctlApps joins installation records with replicated snapshot heads.
func (m *Middleware) ctlApps(context.Context) ([]ctl.AppInfo, error) {
	var recs []registry.AppRecord
	if m.Cluster != nil {
		seen := make(map[string]bool)
		for _, space := range m.Cluster.Spaces() {
			center, ok := m.Cluster.Center(space)
			if !ok {
				continue
			}
			rs, err := center.Registry().Apps()
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				key := r.Name + "\x00" + r.Host
				if !seen[key] {
					seen[key] = true
					recs = append(recs, r)
				}
			}
		}
	} else {
		var err error
		recs, err = m.Registry.Apps()
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Host != recs[j].Host {
			return recs[i].Host < recs[j].Host
		}
		return recs[i].Name < recs[j].Name
	})
	return ctl.JoinApps(recs, m.snapshotHeads()), nil
}

func (m *Middleware) ctlSnapshots(context.Context) ([]state.SnapshotHead, error) {
	if m.Cluster == nil {
		return nil, fmt.Errorf("%w: deployment is not clustered", ctl.ErrUnsupported)
	}
	freshest := make(map[string]state.SnapshotHead)
	for _, h := range m.snapshotHeads() {
		if ex, ok := freshest[h.App]; !ok || h.Seq > ex.Seq {
			freshest[h.App] = h
		}
	}
	out := make([]state.SnapshotHead, 0, len(freshest))
	for _, h := range freshest {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out, nil
}

func (m *Middleware) ctlStats(context.Context) ([]ctl.HostStats, error) {
	var out []ctl.HostStats
	for _, host := range m.Hosts() {
		rt, ok := m.Host(host)
		if !ok || rt.Replicator == nil {
			continue
		}
		out = append(out, ctl.HostStats{Host: host, Stats: rt.Replicator.Stats()})
	}
	return out, nil
}

// ctlRunApp runs an app by name on a host from its installed skeleton
// factory (the facade's typed RunApp covers arbitrary constructed
// instances).
func (m *Middleware) ctlRunApp(ctx context.Context, appName, host string) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	return rt.RunInstalled(ctx, appName)
}

// ctlStopApp stops an app on host; "" locates the host running it.
func (m *Middleware) ctlStopApp(ctx context.Context, appName, host string) error {
	if host == "" {
		var ok bool
		if _, host, ok = m.FindApp(appName); !ok {
			return fmt.Errorf("core: %w: %q is not running anywhere", ctl.ErrAppNotFound, appName)
		}
	}
	return m.StopApp(ctx, host, appName)
}

func (m *Middleware) ctlMigrate(ctx context.Context, req ctl.MigrateRequest) (ctl.MigrateResult, error) {
	binding := migrate.BindingAdaptive
	if req.Static {
		binding = migrate.BindingStatic
	}
	_, from, _ := m.FindApp(req.App)
	// An explicit source host must match reality — the documented
	// contract (and the daemon backend's behavior): migrating "x from
	// hostA" when x runs on hostC is an error, not a silent migration
	// from hostC.
	if req.Host != "" {
		if _, err := m.host(req.Host); err != nil {
			return ctl.MigrateResult{}, err
		}
		if from != req.Host {
			return ctl.MigrateResult{}, fmt.Errorf("core: %w: %q is not running on %s", ctl.ErrAppNotFound, req.App, req.Host)
		}
	}
	rep, err := m.Migrate(ctx, req.App, req.To, binding)
	if err != nil {
		return ctl.MigrateResult{}, err
	}
	return MigrateResultOf(rep), nil
}

// MigrateResultOf maps a follow-me report onto the control plane's reply.
func MigrateResultOf(rep migrate.Report) ctl.MigrateResult {
	return ctl.MigrateResult{
		App: rep.App, From: rep.FromHost, To: rep.ToHost,
		Suspend: rep.Suspend, Migrate: rep.Migrate, Resume: rep.Resume,
		BytesMoved: rep.BytesMoved, Carried: rep.Carried, Delta: rep.Delta,
	}
}
