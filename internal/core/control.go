package core

import (
	"context"
	"fmt"

	"mdagent/internal/cluster"
	"mdagent/internal/ctl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// ControlBackend exposes the full deployment to the versioned control
// plane (Backend over every provisioned host): lifecycle by name,
// introspection (members + incarnations, registry records joined with
// snapshot heads, replicator stats), bundles, and the kernel as the
// Watch event source.
func (m *Middleware) ControlBackend() ctl.Backend { return Backend(m.deployment()) }

// deployment is what the in-process control plane sees: every host, and
// the single registry center or, clustered, every space's center.
func (m *Middleware) deployment() Deployment {
	d := Deployment{
		Info:    ctl.ServerInfo{Role: "middleware"},
		Hosts:   m.runtimes,
		Trusted: m.cfg.TrustedKeys,
		Kernel:  m.Kernel,
	}
	// Clustered, the views are unions over every space's center: centers
	// converge via federation, and mid-replication Backend keeps the
	// freshest snapshot head per app.
	d.Records = func(context.Context) ([]registry.AppRecord, error) {
		var recs []registry.AppRecord
		seen := make(map[string]bool)
		for _, center := range m.centers("") {
			rs, err := center.Registry().Apps()
			if err != nil {
				return nil, err
			}
			for _, r := range rs {
				if key := r.Name + "\x00" + r.Host; !seen[key] {
					seen[key] = true
					recs = append(recs, r)
				}
			}
		}
		return recs, nil
	}
	// A push lands at the first center, whence it replicates everywhere;
	// an install reads the installing host's own space center first, the
	// one it can reach mid-replication.
	d.PutBundle = func(ctx context.Context, name string, raw []byte) error {
		centers := m.centers("")
		if len(centers) == 0 {
			return fmt.Errorf("core: no registry center to store bundle %q", name)
		}
		return state.IgnoreNotDurable(centers[0].PutBundle(ctx, name, raw))
	}
	d.GetBundle = func(ctx context.Context, space, name string) ([]byte, bool, error) {
		for _, center := range m.centers(space) {
			raw, found, err := center.GetBundle(ctx, name)
			if err != nil || found {
				return raw, found, err
			}
		}
		return nil, false, nil
	}
	d.ListBundles = func(ctx context.Context) ([]registry.BundleInfo, error) {
		var out []registry.BundleInfo
		seen := make(map[string]bool)
		for _, center := range m.centers("") {
			infos, err := center.Bundles(ctx)
			if err != nil {
				return nil, err
			}
			for _, info := range infos {
				if !seen[info.Name] {
					seen[info.Name] = true
					out = append(out, info)
				}
			}
		}
		return out, nil
	}
	if m.Cluster == nil {
		return d
	}
	d.Members = func() []cluster.Member {
		// One node's view, not a union of mid-gossip views: any node
		// converges to the same table.
		for _, rt := range m.runtimes() {
			if node, ok := m.Cluster.Node(rt.Host); ok {
				return node.Members()
			}
		}
		return nil
	}
	d.Heads = func(context.Context) ([]state.SnapshotHead, error) {
		var heads []state.SnapshotHead
		for _, center := range m.centers("") {
			heads = append(heads, center.SnapshotHeads()...)
		}
		return heads, nil
	}
	return d
}

// ServeControl binds the control plane onto ep — tests and multi-space
// deployments may serve several endpoints from one Server.
func (m *Middleware) ServeControl(ep *transport.Endpoint) *ctl.Server {
	return ctl.NewServer(m.ControlBackend()).Serve(ep)
}

// centers lists the registry centers in space order, the center of first
// (when it has one) leading: the single center when unclustered, else
// every space's center.
func (m *Middleware) centers(first string) []*cluster.Center {
	if m.Cluster == nil {
		return []*cluster.Center{m.center}
	}
	var out []*cluster.Center
	if center, ok := m.Cluster.Center(first); ok {
		out = append(out, center)
	}
	for _, space := range m.Cluster.Spaces() {
		if center, ok := m.Cluster.Center(space); ok && space != first {
			out = append(out, center)
		}
	}
	return out
}
