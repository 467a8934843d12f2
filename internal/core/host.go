package core

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/bundle"
	"mdagent/internal/ctl"
	"mdagent/internal/ctxkernel"
	"mdagent/internal/media"
	"mdagent/internal/migrate"
	"mdagent/internal/owl"
	"mdagent/internal/platform"
	"mdagent/internal/registry"
	"mdagent/internal/space"
	"mdagent/internal/state"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
	"mdagent/internal/wsdl"
)

// HostRuntime is everything MDAgent runs on one host, and the single
// implementation of a host's application lifecycle: a Middleware holds
// one per simulated host, cmd/mdagentd is exactly one over TCP. Both
// owners only find the host and call it.
type HostRuntime struct {
	Host   string
	Space  string
	Engine *migrate.Engine
	// Container is the host's agent container (nil in cmd/mdagentd, which
	// runs no agent platform).
	Container *platform.Container
	Library   *media.Library
	// Replicator streams this host's application snapshots to its space
	// center (nil unless StartReplicator was called).
	Replicator *state.Replicator

	cat     migrate.Catalog   // the catalog the engine was built with
	kernel  *ctxkernel.Kernel // lifecycle outcomes are published here
	clock   vclock.Clock
	source  string // kernel event source label: "core" in-process, "ctl" in the daemon
	trusted []ed25519.PublicKey
	secrets bundle.Resolver
}

// NewHostRuntime assembles a host from its collaborators. cat must be the
// catalog eng plans against; source labels the kernel events the host
// publishes; trusted and secrets gate and resolve bundle installs.
func NewHostRuntime(host, space string, eng *migrate.Engine, lib *media.Library, cat migrate.Catalog,
	kernel *ctxkernel.Kernel, clock vclock.Clock, source string,
	trusted []ed25519.PublicKey, secrets bundle.Resolver) *HostRuntime {
	return &HostRuntime{
		Host: host, Space: space, Engine: eng, Library: lib,
		cat: cat, kernel: kernel, clock: clock, source: source,
		trusted: trusted, secrets: secrets,
	}
}

// StartReplicator adopts rep as the host's snapshot replicator and starts
// it; every publish surfaces on the kernel as a state.replicated event.
func (rt *HostRuntime) StartReplicator(rep *state.Replicator) {
	rep.OnPublish(func(put state.SnapshotPut, stamp state.SnapshotStamp) {
		kind := "full"
		if put.Delta {
			kind = "delta"
		}
		rt.kernel.PublishTyped("state", ctxkernel.StateReplicatedEvent{
			App: put.App, Host: put.Host, FrameKind: kind,
			Seq: stamp.Seq, Bytes: len(put.Frame), Chain: stamp.Chain,
			At: put.At,
		})
	})
	rep.Start()
	rt.Replicator = rep
}

// register records an installation of this host at its catalog. A
// durability shortfall is advisory here (state.IgnoreNotDurable).
func (rt *HostRuntime) register(ctx context.Context, appName string, desc wsdl.Description, components []string, running bool) error {
	return state.IgnoreNotDurable(rt.cat.RegisterApp(ctx, registry.AppRecord{
		Name: appName, Host: rt.Host, Space: rt.Space,
		Description: desc, Components: components, Running: running,
	}))
}

// Run starts a constructed application on the host and registers it.
func (rt *HostRuntime) Run(ctx context.Context, inst *app.Application) error {
	if err := rt.Engine.Run(inst); err != nil {
		return err
	}
	if rt.Replicator != nil {
		// A restart after a graceful stop lifts the snapshot retirement.
		rt.Replicator.Reinstate(inst.Name())
	}
	if err := rt.register(ctx, inst.Name(), inst.Description(), inst.Components(), true); err != nil {
		// Roll back: an instance the registry does not know would fail
		// every retried Run with "already running" on a host that, as far
		// as the deployment can see, runs nothing.
		rt.Engine.Remove(inst.Name())
		return err
	}
	rt.kernel.PublishTyped(rt.source, ctxkernel.AppStartedEvent{
		App: inst.Name(), Host: rt.Host, At: rt.clock.Now(),
	})
	return nil
}

// RunInstalled runs an app by name from the skeleton factory installed on
// this host (Run covers arbitrary constructed instances).
func (rt *HostRuntime) RunInstalled(ctx context.Context, appName string) error {
	factory, ok := rt.Engine.Factory(appName)
	if !ok {
		return fmt.Errorf("core: %w: no skeleton for %q installed on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	return rt.Run(ctx, factory(rt.Host))
}

// Stop gracefully stops a running application: the instance is suspended
// and removed from the engine, its replicated snapshot is tombstoned (so
// failover never resurrects a deliberately stopped app), and its registry
// record is unregistered — federation-wide when the catalog is a
// federated center.
func (rt *HostRuntime) Stop(ctx context.Context, appName string) error {
	// Remove from the engine LAST: if retiring or unregistering fails
	// mid-way, the app must stay addressable so a retried Stop can
	// complete the tombstone path instead of erroring on a ghost.
	inst, ok := rt.Engine.App(appName)
	if !ok {
		return fmt.Errorf("core: %w: no running app %q on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	if inst.State() == app.Running {
		if err := inst.Suspend(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if rt.Replicator != nil {
		if err := state.IgnoreNotDurable(rt.Replicator.Retire(ctx, appName)); err != nil {
			return err
		}
	}
	if err := state.IgnoreNotDurable(rt.cat.UnregisterApp(ctx, appName, rt.Host)); err != nil {
		return err
	}
	rt.Engine.Remove(appName)
	rt.kernel.PublishTyped(rt.source, ctxkernel.AppStoppedEvent{
		App: appName, Host: rt.Host, At: rt.clock.Now(),
	})
	return nil
}

// Install provisions an application skeleton factory on the host (the
// "application exists at destination" case) and records the installed
// components at the registry.
func (rt *HostRuntime) Install(ctx context.Context, appName string, desc wsdl.Description, components []string, factory func(host string) *app.Application) error {
	rt.Engine.InstallFactory(appName, factory)
	return rt.register(ctx, appName, desc, components, false)
}

// InstallBundle assembles an application factory from the signed bundle
// bytes raw and installs it — the generic arm of Install: no compiled-in
// factory needed, the manifest is the skeleton. The caller fetches raw
// (where a bundle is read from differs per owner); it is re-verified here
// even though the push path already did, because in a federation the
// bytes may have arrived via replication from a center this host's
// operator never vetted.
func (rt *HostRuntime) InstallBundle(ctx context.Context, appName string, raw []byte) error {
	b, err := bundle.Admit(appName, raw, rt.trusted)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	factory, err := bundle.Instantiate(b, rt.secrets)
	if err != nil {
		bundle.Rejected.Inc()
		return fmt.Errorf("core: instantiate bundle %q: %w", appName, err)
	}
	components := make([]string, 0, len(b.Manifest.Components))
	for _, spec := range b.Manifest.Components {
		components = append(components, spec.Name)
	}
	if err := rt.Install(ctx, appName, b.Manifest.Description, components, factory); err != nil {
		return err
	}
	bundle.Installs.Inc()
	return nil
}

// Migrate follow-mes an application running here to destHost with the
// given binding mode and reports the outcome on the kernel as a typed
// app.migrated / app.migrate-failed event — the control plane's migration
// entry point, sharing the agents' event contract so a Watch stream sees
// operator- and agent-driven moves identically.
func (rt *HostRuntime) Migrate(ctx context.Context, appName, destHost string, binding migrate.BindingMode) (migrate.Report, error) {
	if _, ok := rt.Engine.App(appName); !ok {
		return migrate.Report{}, fmt.Errorf("core: %w: no running app %q on %s", ctl.ErrAppNotFound, appName, rt.Host)
	}
	rep, err := rt.Engine.FollowMe(ctx, appName, destHost, binding, owl.MatchSemantic)
	now := rt.clock.Now()
	if errors.Is(err, transport.ErrNoRoute) || errors.Is(err, space.ErrUnknownHost) {
		// The engine cannot address the destination: no route to its
		// check-in endpoint, or a host the space directory does not know.
		err = fmt.Errorf("core: %w: %q: %w", ctl.ErrUnknownHost, destHost, err)
	}
	if err != nil {
		rt.kernel.PublishTyped(rt.source, ctxkernel.AppMigrateFailedEvent{
			App: appName, Dest: destHost, Reason: "control plane", Error: err.Error(), At: now,
		})
		return migrate.Report{}, err
	}
	rt.kernel.PublishTyped(rt.source, ctxkernel.AppMigratedEvent{
		App: appName, Dest: destHost, Mode: migrate.FollowMe.String(), Reason: "control plane",
		SuspendMs: rep.Suspend.Milliseconds(), MigrateMs: rep.Migrate.Milliseconds(),
		ResumeMs: rep.Resume.Milliseconds(), Bytes: rep.BytesMoved, At: now,
	})
	return rep, nil
}

// Relaunch restores one application on this host, the survivor failover
// chose: through the installed skeleton factory when one exists (the
// clone-dispatch arrival machinery), else as a bare instance rebuilt from
// the replicated interface description. When a replicated snapshot rides
// along, it is unwrapped into the new instance before resumption, so the
// application continues from its last replicated state instead of a
// blank skeleton.
func (rt *HostRuntime) Relaunch(rec registry.AppRecord, snap *state.SnapshotRecord) (registry.AppRecord, bool, error) {
	// Idempotent: a retried failover may find the app already relaunched
	// here by an earlier partial attempt — that is success, not a
	// duplicate-run error (and its live state must not be clobbered by a
	// re-applied snapshot).
	if existing, ok := rt.Engine.App(rec.Name); ok {
		if existing.State() == app.Suspended {
			if err := existing.Resume(); err != nil {
				return registry.AppRecord{}, false, err
			}
		}
		return registry.AppRecord{
			Name: rec.Name, Host: rt.Host, Space: rt.Space,
			Description: rec.Description, Components: existing.Components(), Running: true,
		}, false, nil
	}
	var inst *app.Application
	if factory, ok := rt.Engine.Factory(rec.Name); ok {
		inst = factory(rt.Host)
	} else {
		inst = app.New(rec.Name, rt.Host, rec.Description)
	}
	restored := false
	if snap != nil {
		ts, err := snap.Snapshot()
		// A frame that fails its checksum degrades to a skeleton
		// relaunch; failover validated it, so an error here is a race
		// with nothing better to fall back to anyway.
		if err == nil && ts.Wrap.App == rec.Name {
			if inst.State() == app.Running {
				if err := inst.Suspend(); err != nil {
					return registry.AppRecord{}, false, err
				}
			}
			if err := inst.Unwrap(ts.Wrap); err != nil {
				return registry.AppRecord{}, false, fmt.Errorf("core: restore snapshot for %s: %w", rec.Name, err)
			}
			inst.SetHost(rt.Host)
			restored = true
		}
	}
	if inst.State() == app.Suspended {
		if err := inst.Resume(); err != nil {
			return registry.AppRecord{}, false, err
		}
	}
	if err := rt.Engine.Run(inst); err != nil {
		return registry.AppRecord{}, false, err
	}
	if rt.Replicator != nil {
		rt.Replicator.Reinstate(rec.Name)
	}
	return registry.AppRecord{
		Name: rec.Name, Host: rt.Host, Space: rt.Space,
		Description: rec.Description, Components: inst.Components(), Running: true,
	}, restored, nil
}
