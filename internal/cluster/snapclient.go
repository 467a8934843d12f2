package cluster

import (
	"context"
	"slices"
	"sync"

	"mdagent/internal/state"
	"mdagent/internal/transport"
)

// SnapshotClient is a remote state.Publisher: it speaks the snapshot
// wire protocol a federated center binds in Serve, so a multi-process
// daemon's replicator streams its application state to the center
// exactly as an in-process deployment does — delta puts, need-full
// fallback, tombstones, and restore-side fetches all cross the wire.
type SnapshotClient struct {
	ep      *transport.Endpoint
	server  string
	concern string // write-concern header stamped on every put ("" = center default)

	mu    sync.Mutex
	cache map[string]state.SnapshotRecord // last record fetched per app, the base delta-aware pulls extend
	stats SnapshotFetchStats
}

// SnapshotFetchStats counts how a client's restore fetches were served —
// the observable a delta-aware failover pull is judged by.
type SnapshotFetchStats struct {
	Full      int // full-record responses
	DeltaOnly int // tail-only responses grafted onto the cached record
	Refetches int // grafts that failed and forced a second, full fetch
}

var _ state.Publisher = (*SnapshotClient)(nil)

// NewSnapshotClient creates a client that publishes to the center served
// at server through ep.
func NewSnapshotClient(ep *transport.Endpoint, server string) *SnapshotClient {
	return &SnapshotClient{ep: ep, server: server, cache: map[string]state.SnapshotRecord{}}
}

// SetWriteConcern makes every put carry wc as its write-concern header,
// overriding the center's configured default per put (mdagentd's
// -write-concern flag). The zero value defers to the center.
func (c *SnapshotClient) SetWriteConcern(wc WriteConcern) {
	c.concern = string(wc)
}

// PutSnapshot implements state.Publisher: one OpSnapPut fast frame out,
// one OpSnapPutReply back. A center that cannot apply a delta put
// answers in-band; the client maps that back to state.ErrNeedFull so the
// replicator's fallback works unchanged, and a durability shortfall maps
// to state.ErrNotDurable so the replicator re-queues instead of
// advancing its acked base. A center that predates the fast frame
// refuses it with transport.ErrVersion, which is returned as is — the
// replicator re-queues, as for any failed put.
func (c *SnapshotClient) PutSnapshot(ctx context.Context, put state.SnapshotPut) (state.SnapshotStamp, error) {
	if put.Concern == "" {
		put.Concern = c.concern
	}
	reply, err := c.ep.Request(ctx, c.server, MsgPutSnapshot, encodeSnapPut(put))
	if err != nil {
		return state.SnapshotStamp{}, err
	}
	o, err := decodeSnapOutcomeReply(reply.Payload)
	if err != nil {
		return state.SnapshotStamp{}, err
	}
	return o.Stamp, o.err(put.App)
}

// DropSnapshot implements state.Publisher.
func (c *SnapshotClient) DropSnapshot(ctx context.Context, appName, host string) error {
	payload, err := transport.EncodeSealed(dropSnapshotReq{App: appName, Host: host})
	if err != nil {
		return err
	}
	_, err = c.ep.Request(ctx, c.server, MsgDropSnapshot, payload)
	return err
}

// LatestSnapshot fetches the center's freshest replicated record for an
// application — the restore side of the wire protocol. The fetch is
// delta-aware: when the client already fetched a record of the app, the
// request describes it (base sequence, head sequence, head digest) and
// a center whose copy extends the same base answers with just the
// missing delta tail, which the client grafts onto its cached record. A
// graft that does not line up — eviction raced a rewrite, a full frame
// moved the base — drops the cache and pays for one full fetch, so the
// optimization can degrade but never corrupt a restore.
func (c *SnapshotClient) LatestSnapshot(ctx context.Context, appName string) (state.SnapshotRecord, bool, error) {
	c.mu.Lock()
	cached, have := c.cache[appName]
	c.mu.Unlock()

	req := getSnapshotReq{App: appName}
	if have {
		req.Have = true
		req.HaveBaseSeq = cached.BaseSeq
		req.HaveSeq = cached.Seq
		req.HaveDigest = cached.StateDigest
	}
	reply, err := c.fetch(ctx, req)
	if err != nil {
		return state.SnapshotRecord{}, false, err
	}
	rec := reply.Rec
	if reply.Found && reply.DeltaOnly {
		merged, ok := graftTail(cached, reply.Rec)
		if !ok {
			c.mu.Lock()
			delete(c.cache, appName)
			c.stats.Refetches++
			c.mu.Unlock()
			if reply, err = c.fetch(ctx, getSnapshotReq{App: appName}); err != nil {
				return state.SnapshotRecord{}, false, err
			}
			rec = reply.Rec
		} else {
			rec = merged
		}
	}
	c.mu.Lock()
	if reply.Found {
		c.cache[appName] = rec
		if reply.DeltaOnly {
			c.stats.DeltaOnly++
		} else {
			c.stats.Full++
		}
	} else {
		delete(c.cache, appName)
	}
	c.mu.Unlock()
	return rec, reply.Found, nil
}

// fetch runs one MsgGetSnapshot round trip.
func (c *SnapshotClient) fetch(ctx context.Context, req getSnapshotReq) (getSnapshotReply, error) {
	payload, err := transport.EncodeSealed(req)
	if err != nil {
		return getSnapshotReply{}, err
	}
	var reply getSnapshotReply
	if err := c.ep.RequestDecode(ctx, c.server, MsgGetSnapshot, payload, &reply); err != nil {
		return getSnapshotReply{}, err
	}
	return reply, nil
}

// FetchStats reports how this client's restore fetches were served.
func (c *SnapshotClient) FetchStats() SnapshotFetchStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// graftTail splices a tail-only reply onto the cached record it extends
// and validates the result, refusing any shape the center's digest
// checks should have made impossible.
func graftTail(cached, tail state.SnapshotRecord) (state.SnapshotRecord, bool) {
	if tail.BaseSeq != cached.BaseSeq || tail.Seq < cached.Seq {
		return state.SnapshotRecord{}, false
	}
	merged := tail
	merged.Frame = cached.Frame
	merged.Deltas = append(slices.Clone(cached.Deltas), tail.Deltas...)
	if uint64(len(merged.Deltas)) != merged.Seq-merged.BaseSeq {
		return state.SnapshotRecord{}, false
	}
	if err := merged.Verify(); err != nil {
		return state.SnapshotRecord{}, false
	}
	return merged, true
}

// SnapshotHeads lists the metadata of every live replicated snapshot the
// center holds — the control plane's remote snapshot view.
func (c *SnapshotClient) SnapshotHeads(ctx context.Context) ([]state.SnapshotHead, error) {
	payload, err := transport.EncodeSealed(struct{}{})
	if err != nil {
		return nil, err
	}
	var reply listSnapsReply
	if err := c.ep.RequestDecode(ctx, c.server, MsgListSnaps, payload, &reply); err != nil {
		return nil, err
	}
	return reply.Heads, nil
}
