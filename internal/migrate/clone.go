package migrate

import (
	"context"
	"fmt"
	"time"

	"mdagent/internal/app"
	"mdagent/internal/owl"
	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// syncPayload carries a coordinator state change down a synchronization
// link between a master application and its clones (paper §4.2.1: "The
// coordinator establishes the synchronization link between different
// presentations").
type syncPayload struct {
	App    string // destination instance name
	Change app.StateChange
}

// CloneDispatch clones a running application to destHost under cloneName
// (copy-paste mobility): the original keeps running, the clone starts at
// the destination from the original's snapshot, and a bidirectional
// synchronization link keeps their coordinators converging — the paper's
// ubiquitous-slideshow demo, where overflow rooms follow the speaker's
// presentation controls.
func (e *Engine) CloneDispatch(ctx context.Context, appName, destHost, cloneName string, match owl.MatchMode) (Report, error) {
	var rep Report
	e.mu.Lock()
	a, ok := e.apps[appName]
	e.mu.Unlock()
	if !ok {
		return rep, fmt.Errorf("migrate: no running app %q on %s", appName, e.host)
	}
	if cloneName == "" || (cloneName == appName && destHost == e.host) {
		return rep, fmt.Errorf("migrate: clone needs a distinct name/host")
	}
	interSpace := false
	if e.dir != nil {
		crosses, possible, err := e.dir.CrossesSpaces(e.host, destHost)
		if err != nil {
			return rep, err
		}
		if crosses && !possible {
			return rep, fmt.Errorf("migrate: no gateway path from %s to %s", e.host, destHost)
		}
		interSpace = crosses
	}
	clk := e.clock()

	// --- Copy: snapshot under a brief freeze; the original resumes
	// immediately (unlike follow-me's cut). ---
	suspendStart := clk.Now()
	if err := a.Suspend(); err != nil {
		return rep, err
	}
	carried, plans, err := e.planComponents(ctx, a, destHost, BindingAdaptive, match)
	if err != nil {
		_ = a.Resume()
		return rep, err
	}
	wrap, err := a.WrapComponents(carried)
	if err != nil {
		_ = a.Resume()
		return rep, err
	}
	enc, frameLen, err := encodeCheckin(&checkinPayload{
		App: appName, CloneName: cloneName, Mode: CloneDispatch,
		Binding: BindingAdaptive, FromHost: e.host, FromEngine: e.ep.Name(), Budget: budgetOf(ctx),
		Desc: a.Description(), Rebindings: plans,
	}, func(h []byte) ([]byte, error) { return state.AppendWrap(h, wrap) })
	if err != nil {
		_ = a.Resume()
		return rep, err
	}
	e.chargeSerialize(wrap.TotalBytes())
	e.charge(e.costs.CheckoutOverhead)
	if err := a.Resume(); err != nil {
		return rep, err
	}
	suspendDur := clk.Now().Sub(suspendStart)

	// --- Dispatch. ---
	migrateStart := clk.Now()
	e.charge(e.costs.TransferOverhead)
	reply, err := e.requestCheckin(ctx, destHost, MsgClone, enc)
	if err != nil {
		return rep, fmt.Errorf("migrate: clone checkin at %s: %w", destHost, err)
	}
	resumeDur := time.Duration(reply.ResumeNanos)
	migrateDur := clk.Now().Sub(migrateStart) - resumeDur
	if migrateDur < 0 {
		migrateDur = 0
	}

	// --- Establish the master side of the synchronization link. ---
	destEngine := EndpointName(destHost)
	a.Coordinator().AddLink(cloneName, e.syncForwarder(destEngine, cloneName))

	return Report{
		App: appName, Mode: CloneDispatch, Binding: BindingAdaptive,
		FromHost: e.host, ToHost: destHost, InterSpace: interSpace,
		Suspend: suspendDur, Migrate: migrateDur, Resume: resumeDur,
		BytesMoved: int64(frameLen), Carried: carried, Rebindings: plans,
		AdaptNotes: reply.AdaptNotes, SyncLink: true, RestoredApp: cloneName,
	}, nil
}

// syncForwarder ships coordinator changes to a remote instance through
// the engine endpoint.
func (e *Engine) syncForwarder(destEngine, destApp string) func(app.StateChange) {
	return func(ch app.StateChange) {
		payload, err := transport.Encode(syncPayload{App: destApp, Change: ch})
		if err != nil {
			return
		}
		// Fire-and-forget delivery; the coordinator's per-origin dedup
		// makes redelivery safe and loss shows up as divergence the next
		// change repairs (last-writer-wins per key).
		_ = e.ep.Send(destEngine, MsgSync, payload)
	}
}

// handleClone checks in a clone instance and wires the return half of the
// synchronization link.
func (e *Engine) handleClone(tm transport.Message) ([]byte, error) {
	p, err := decodeCheckin(tm.Payload)
	if err != nil {
		return nil, err
	}
	if p.CloneName == "" {
		return nil, fmt.Errorf("migrate: clone payload lacks a clone name")
	}
	reply, err := e.restore(p, p.CloneName)
	if err != nil {
		return nil, err
	}
	// Return link: clone-side changes flow back to the master.
	e.mu.Lock()
	inst := e.apps[p.CloneName]
	e.mu.Unlock()
	inst.Coordinator().AddLink(p.App, e.syncForwarder(p.FromEngine, p.App))
	return encodeCheckinReply(&reply), nil
}

// handleSync applies a synchronization-link change to a local instance.
func (e *Engine) handleSync(tm transport.Message) ([]byte, error) {
	var p syncPayload
	if err := transport.Decode(tm.Payload, &p); err != nil {
		return nil, err
	}
	e.mu.Lock()
	inst, ok := e.apps[p.App]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("migrate: sync for unknown app %q on %s", p.App, e.host)
	}
	inst.Coordinator().ApplyRemote(p.Change)
	return nil, nil
}
