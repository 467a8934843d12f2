package core

import (
	"context"
	"fmt"
	"sort"

	"mdagent/internal/bundle"
	"mdagent/internal/ctl"
	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// PushBundle verifies a signed app bundle against the deployment's
// trusted keys (bundle.Admit) and stores it: at the first space's
// federated center when clustered (whence it replicates everywhere),
// else at the single registry.
func (m *Middleware) PushBundle(ctx context.Context, name string, raw []byte) error {
	if _, err := bundle.Admit(name, raw, m.cfg.TrustedKeys); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := m.putBundle(ctx, name, raw); err != nil {
		return err
	}
	bundle.Pushes.Inc()
	bundle.Bytes.Add(int64(len(raw)))
	return nil
}

// putBundle writes an admitted bundle to the deployment's store.
func (m *Middleware) putBundle(ctx context.Context, name string, raw []byte) error {
	if m.Cluster != nil {
		for _, space := range m.Cluster.Spaces() {
			if center, ok := m.Cluster.Center(space); ok {
				return state.IgnoreNotDurable(center.PutBundle(ctx, name, raw))
			}
		}
	}
	return m.Registry.PutBundle(name, raw)
}

// ListBundles lists the stored bundles, deduplicated across the
// federation's centers when clustered.
func (m *Middleware) ListBundles(context.Context) ([]registry.BundleInfo, error) {
	if m.Cluster == nil {
		return m.Registry.Bundles()
	}
	seen := make(map[string]registry.BundleInfo)
	for _, space := range m.Cluster.Spaces() {
		center, ok := m.Cluster.Center(space)
		if !ok {
			continue
		}
		infos, err := center.Bundles(context.Background())
		if err != nil {
			return nil, err
		}
		for _, info := range infos {
			seen[info.Name] = info
		}
	}
	out := make([]registry.BundleInfo, 0, len(seen))
	for _, info := range seen {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// InstallBundle installs a stored, signed bundle on host
// (HostRuntime.InstallBundle); the bytes come from the deployment's store.
func (m *Middleware) InstallBundle(ctx context.Context, appName, host string) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	raw, found, err := m.getBundle(ctx, rt.Space, appName)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: %w: %q (push its bundle first)", ctl.ErrUnknownApp, appName)
	}
	return rt.InstallBundle(ctx, appName, raw)
}

// getBundle reads a stored bundle, preferring the installing host's own
// space center (federation replication makes any center equivalent once
// converged; mid-replication the local one is what the host can reach).
func (m *Middleware) getBundle(ctx context.Context, space, name string) ([]byte, bool, error) {
	if m.Cluster == nil {
		return m.Registry.GetBundle(name)
	}
	spaces := append([]string{space}, m.Cluster.Spaces()...)
	for _, sp := range spaces {
		center, ok := m.Cluster.Center(sp)
		if !ok {
			continue
		}
		raw, found, err := center.GetBundle(ctx, name)
		if err != nil || found {
			return raw, found, err
		}
	}
	return nil, false, nil
}

// ctlListBundles adapts ListBundles to the control plane's reply shape.
func (m *Middleware) ctlListBundles(ctx context.Context) ([]ctl.BundleInfo, error) {
	infos, err := m.ListBundles(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]ctl.BundleInfo, 0, len(infos))
	for _, info := range infos {
		out = append(out, ctl.BundleInfo{Name: info.Name, Bytes: info.Bytes})
	}
	return out, nil
}

// ctlInstall serves the control plane's plain install op: a compiled-in
// skeleton factory when the engine holds one, else the stored bundle,
// else the typed ErrUnknownApp refusal.
func (m *Middleware) ctlInstall(ctx context.Context, appName, host string) error {
	rt, err := m.host(host)
	if err != nil {
		return err
	}
	if factory, ok := rt.Engine.Factory(appName); ok {
		inst := factory(host)
		return rt.Install(ctx, appName, inst.Description(), inst.Components(), factory)
	}
	return m.InstallBundle(ctx, appName, host)
}
