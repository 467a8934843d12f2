package cluster

import (
	"context"
	"fmt"
	"sort"

	"mdagent/internal/registry"
	"mdagent/internal/state"
)

// Rehoming is one completed failover: an application that was running on
// a dead host relaunched on a survivor.
type Rehoming struct {
	App      string
	From     string // dead host
	To       string // surviving host the app was re-homed onto
	NewSpace string
	// Restored reports that the relaunch carried a replicated state
	// snapshot (state pipeline) instead of starting from a bare skeleton.
	Restored bool
	// SnapshotSeq is the restored snapshot's capture sequence (0 when no
	// snapshot was restored).
	SnapshotSeq uint64
}

// LaunchFunc relaunches the application described by rec (its record on
// the dead host) on the target host and returns the new installation
// record to register — internal/core wires this to the target host's
// migration engine, reusing the clone-dispatch restore machinery (factory
// instantiation, paper §4.2.2). snap, when non-nil, is the freshest
// replicated state snapshot; the launcher unwraps it into the new
// instance before resuming so the application continues where it left
// off, and reports via restored whether it actually applied it (a retried
// failover finding the app already relaunched, or a frame that fails its
// decode, degrades to a launch without state).
type LaunchFunc func(rec registry.AppRecord, target string, snap *state.SnapshotRecord) (newRec registry.AppRecord, restored bool, err error)

// Failover plans and executes re-homing when membership declares a host
// dead: every application recorded as *running* on the dead host is
// relaunched on the best surviving host, chosen from the federated
// registry (prefer hosts that already hold an installation, then the most
// completely provisioned one). The registry is updated through the
// replicating center, so every space sees the app's new home. With
// RestoreState set, the relaunch restores the freshest replicated
// snapshot the planning center holds, so in-flight component state
// survives the crash.
type Failover struct {
	// Center is the replicated registry view used for planning and for
	// recording outcomes.
	Center *Center
	// Alive lists host ids currently believed alive (the reporter node's
	// view); the dead host is excluded by the planner regardless.
	Alive func() []string
	// Launch relaunches one application on a chosen host.
	Launch LaunchFunc
	// RestoreState enables snapshot restoration (Config.ReplicateState).
	RestoreState bool
}

// Rehome re-homes every application running on deadHost. It returns the
// successful rehomings; a per-app failure aborts with the rehomings
// completed so far.
func (f *Failover) Rehome(ctx context.Context, deadHost string) ([]Rehoming, error) {
	recs, err := f.Center.Registry().AppsOnHost(deadHost)
	if err != nil {
		return nil, err
	}
	alive := make(map[string]bool)
	for _, h := range f.Alive() {
		if h != deadHost {
			alive[h] = true
		}
	}
	var done []Rehoming
	for _, rec := range recs {
		if !rec.Running {
			continue // skeleton installs have nothing to re-home
		}
		target, err := f.pickTarget(rec, alive)
		if err != nil {
			return done, fmt.Errorf("cluster: rehome %s from %s: %w", rec.Name, deadHost, err)
		}
		snap := f.snapshotFor(rec.Name)
		newRec, restored, err := f.Launch(rec, target, snap)
		if err != nil {
			return done, fmt.Errorf("cluster: relaunch %s on %s: %w", rec.Name, target, err)
		}
		newRec.Running = true
		// A durability shortfall on the bookkeeping writes must not abort
		// the failover: the records landed at the planning center and
		// anti-entropy keeps retrying delivery — aborting would strand
		// the remaining apps over an advisory error.
		if err := state.IgnoreNotDurable(f.Center.RegisterApp(ctx, newRec)); err != nil {
			return done, err
		}
		if err := state.IgnoreNotDurable(f.Center.UnregisterApp(ctx, rec.Name, deadHost)); err != nil {
			return done, err
		}
		r := Rehoming{App: rec.Name, From: deadHost, To: target, NewSpace: newRec.Space, Restored: restored}
		if restored && snap != nil {
			r.SnapshotSeq = snap.Seq
		}
		done = append(done, r)
	}
	return done, nil
}

// snapshotFor fetches the replicated snapshot to restore an app from
// when state restoration is enabled, verifying every frame in the chosen
// record — base and delta chain — by header and checksum (cheap, no
// decode; the launcher reassembles exactly once) so a corrupt record
// degrades to a skeleton relaunch instead of failing the failover.
//
// When the head record is fresher but never met its write concern, the
// planner prefers the last quorum-acked copy: an unacked head may be a
// minority-partition write the rest of the federation never saw, and
// restoring it would fork state the survivors cannot reconcile. With
// WriteAsync (the default) no record is ever stamped durable and the
// head is restored as before.
func (f *Failover) snapshotFor(appName string) *state.SnapshotRecord {
	if !f.RestoreState {
		return nil
	}
	sr, ok := f.Center.LatestSnapshot(appName)
	if !ok {
		return nil
	}
	if !sr.Durable {
		if dur, ok := f.Center.LatestDurableSnapshot(appName); ok && dur.Verify() == nil {
			return &dur
		}
	}
	if err := sr.Verify(); err != nil {
		// Corrupt head: the durable stash is a second chance before
		// degrading to a skeleton relaunch.
		if dur, ok := f.Center.LatestDurableSnapshot(appName); ok && dur.Verify() == nil {
			return &dur
		}
		return nil
	}
	return &sr
}

// pickTarget ranks surviving hosts for one application: hosts already
// holding an installation record beat bare hosts, more installed
// components beat fewer, and host id breaks ties deterministically.
func (f *Failover) pickTarget(rec registry.AppRecord, alive map[string]bool) (string, error) {
	installs, err := f.Center.Registry().FindApp(rec.Name)
	if err != nil {
		return "", err
	}
	type candidate struct {
		host       string
		components int
	}
	var cands []candidate
	for _, inst := range installs {
		if alive[inst.Host] {
			cands = append(cands, candidate{inst.Host, len(inst.Components)})
		}
	}
	if len(cands) == 0 {
		// No surviving installation: any alive host can host a bare
		// restart from the interface description.
		for h := range alive {
			cands = append(cands, candidate{h, 0})
		}
	}
	if len(cands) == 0 {
		return "", fmt.Errorf("no surviving host")
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].components != cands[j].components {
			return cands[i].components > cands[j].components
		}
		return cands[i].host < cands[j].host
	})
	return cands[0].host, nil
}
