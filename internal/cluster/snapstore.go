package cluster

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"mdagent/internal/state"
	"mdagent/internal/store"
	"mdagent/internal/transport"
	"mdagent/internal/vclock"
)

// On-disk layout of the replication table (DESIGN.md §4). Every record
// has one key under fed/. For app, resource, device and bundle records
// and for tombstones its value is the whole record, gob-encoded. A live
// snapshot record is stored the way it is replicated — base and deltas
// apart — so that appending a 0.5 KB delta or stamping a durable mark
// does not rewrite the base:
//
//	fed/snap/<app>                  head: metadata, chain length, generation
//	fedchain/snap/<app>/<gen>/b     base frame, raw
//	fedchain/snap/<app>/<gen>/d/<i> delta i of the chain, raw
//
// Within a generation every chain key is written once. Anything that
// replaces the base (a full-frame put, a compaction, a winning remote
// record) writes a whole new generation, then the head that names it —
// the commit point, since the store's log replays in write order — then
// deletes the old generation. A crash therefore leaves a head whose
// chain is complete plus, at worst, keys no head names; NewCenter sweeps
// those.

// chainKeyPrefix holds the frames of live snapshot records. It does not
// share fedKeyPrefix, so the fed/ scan sees heads only.
const chainKeyPrefix = "fedchain/"

// snapHeadMagic leads a persisted snapshot head. A gob stream opens with
// a message length, whose first byte is below 0x80 or above 0xf7, so a
// whole-record gob written before the chain layout can never be taken
// for a head — nor a head for gob: an older binary's decoder rejects it
// as a corrupt frame and re-fetches the record by anti-entropy.
const snapHeadMagic byte = 0xc5

// errBadSnapHead marks fed/snap/* bytes that are not a decodable head.
var errBadSnapHead = errors.New("cluster: bad snapshot head")

// diskChain is the chain the head on disk names: its generation and how
// many delta keys it holds.
type diskChain struct {
	gen    uint64
	deltas int
}

func chainBaseKey(key string, gen uint64) string {
	return chainKeyPrefix + key + "/" + strconv.FormatUint(gen, 10) + "/b"
}

func chainDeltaKey(key string, gen uint64, i int) string {
	return chainKeyPrefix + key + "/" + strconv.FormatUint(gen, 10) + "/d/" + strconv.Itoa(i)
}

// parseChainKey splits a chain key into record key, generation and delta
// index (-1 for the base). It reads from the right, so an app name that
// contains a slash still parses.
func parseChainKey(k string) (key string, gen uint64, delta int, ok bool) {
	rest, found := strings.CutPrefix(k, chainKeyPrefix)
	if !found {
		return "", 0, 0, false
	}
	delta = -1
	if trimmed, isBase := strings.CutSuffix(rest, "/b"); isBase {
		rest = trimmed
	} else {
		i := strings.LastIndex(rest, "/d/")
		if i < 0 {
			return "", 0, 0, false
		}
		n, err := strconv.Atoi(rest[i+len("/d/"):])
		if err != nil || n < 0 {
			return "", 0, 0, false
		}
		rest, delta = rest[:i], n
	}
	i := strings.LastIndexByte(rest, '/')
	if i < 0 {
		return "", 0, 0, false
	}
	gen, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, 0, false
	}
	return rest[:i], gen, delta, true
}

// appendSnapHead encodes a live snapshot record's head: everything but
// the frames, plus where the frames are.
//
//	magic, string key, string origin,
//	uvarint n + n × (string node, uvarint counter), sorted by node,
//	string app, string host, string space, uvarint seq, uvarint base-seq,
//	time at, 32 raw state-digest bytes, bool durable,
//	uvarint chain length, uvarint generation
func appendSnapHead(b []byte, r Record, dc diskChain) []byte {
	b = append(b, snapHeadMagic)
	b = transport.AppendString(b, r.Key)
	b = transport.AppendString(b, r.Origin)
	nodes := make([]string, 0, len(r.Version))
	for n := range r.Version {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	b = transport.AppendUint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = transport.AppendString(b, n)
		b = transport.AppendUint(b, r.Version[n])
	}
	s := r.Snap
	b = transport.AppendString(b, s.App)
	b = transport.AppendString(b, s.Host)
	b = transport.AppendString(b, s.Space)
	b = transport.AppendUint(b, s.Seq)
	b = transport.AppendUint(b, s.BaseSeq)
	b = transport.AppendTime(b, s.At)
	b = append(b, s.StateDigest[:]...)
	b = transport.AppendBool(b, s.Durable)
	b = transport.AppendUint(b, uint64(dc.deltas))
	return transport.AppendUint(b, dc.gen)
}

// decodeSnapHead parses appendSnapHead's layout into a frameless record
// and the chain it names. The bytes come from a disk a crash may have
// left behind: any input yields errBadSnapHead or a head that re-encodes
// to an equal one, and nothing is allocated on the strength of a count
// the input merely claims.
func decodeSnapHead(raw []byte) (Record, diskChain, error) {
	if len(raw) == 0 || raw[0] != snapHeadMagic {
		return Record{}, diskChain{}, fmt.Errorf("%w: no magic", errBadSnapHead)
	}
	r := transport.NewFastReader(raw[1:])
	rec := Record{Kind: RecordSnapshot}
	rec.Key = r.String()
	rec.Origin = r.String()
	// An entry is at least two bytes (empty node name, one-byte counter).
	if n := r.Uint(); n > uint64(len(raw))/2 {
		return Record{}, diskChain{}, fmt.Errorf("%w: version vector claims %d entries in %d bytes", errBadSnapHead, n, len(raw))
	} else if n > 0 {
		rec.Version = make(vclock.Version) // grows with the entries actually read
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			node := r.String()
			rec.Version[node] = r.Uint()
		}
	}
	rec.Snap.App = r.String()
	rec.Snap.Host = r.String()
	rec.Snap.Space = r.String()
	rec.Snap.Seq = r.Uint()
	rec.Snap.BaseSeq = r.Uint()
	rec.Snap.At = r.Time()
	copy(rec.Snap.StateDigest[:], r.Fixed(sha256.Size))
	rec.Snap.Durable = r.Bool()
	deltas := r.Uint()
	dc := diskChain{gen: r.Uint()}
	if err := r.Err(); err != nil {
		return Record{}, diskChain{}, fmt.Errorf("%w: %v", errBadSnapHead, err)
	}
	if deltas > math.MaxInt32 { // the loader stops at the first missing key, so this only keeps the int conversion safe
		return Record{}, diskChain{}, fmt.Errorf("%w: chain length %d", errBadSnapHead, deltas)
	}
	dc.deltas = int(deltas)
	return rec, dc, nil
}

// persistScope is what a call site knows changed since the record was
// last persisted.
type persistScope int

const (
	// wholeRecord: a new record, or one whose base frame changed.
	wholeRecord persistScope = iota
	// newestDelta: one delta was appended to the chain.
	newestDelta
	// headOnly: metadata moved (durable mark, merged version vector);
	// the frames did not.
	headOnly
)

// persist writes a record's replication state through to the registry's
// store, as little of it as scope allows; callers hold c.mu and install
// the record in c.records only once this returned nil, so memory never
// runs ahead of a disk that refused the write.
func (c *Center) persist(r Record, scope persistScope) error {
	if err := c.persistScoped(r, scope); err != nil {
		c.mPersistErrs.Inc()
		return fmt.Errorf("cluster: persist %s: %w", r.Key, err)
	}
	return nil
}

func (c *Center) persistScoped(r Record, scope persistScope) error {
	db := c.reg.Store()
	old, onDisk := c.chains[r.Key]
	if r.Kind != RecordSnapshot || r.Deleted {
		raw, err := transport.Encode(r)
		if err != nil {
			return err
		}
		if err := db.Put(fedKeyPrefix+r.Key, raw); err != nil {
			return err
		}
		if onDisk { // a tombstone over a live snapshot: its frames go too
			delete(c.chains, r.Key)
			return dropChain(db, r.Key, old)
		}
		return nil
	}

	n := len(r.Snap.Deltas)
	dc := old
	switch {
	case scope == newestDelta && onDisk && old.deltas == n-1:
		if err := db.Put(chainDeltaKey(r.Key, old.gen, n-1), r.Snap.Deltas[n-1]); err != nil {
			return err
		}
		dc.deltas = n
	case scope == headOnly && onDisk && old.deltas == n:
	default:
		// The base changed, or the disk does not hold this record as a
		// chain yet (first write, or a whole-gob record from before the
		// chain layout): write everything under a fresh generation.
		dc = diskChain{gen: old.gen + 1, deltas: n}
		if err := db.Put(chainBaseKey(r.Key, dc.gen), r.Snap.Frame); err != nil {
			return err
		}
		for i, d := range r.Snap.Deltas {
			if err := db.Put(chainDeltaKey(r.Key, dc.gen, i), d); err != nil {
				return err
			}
		}
	}
	if err := db.Put(fedKeyPrefix+r.Key, appendSnapHead(make([]byte, 0, 192), r, dc)); err != nil {
		return err
	}
	c.chains[r.Key] = dc
	if onDisk && dc.gen != old.gen {
		return dropChain(db, r.Key, old)
	}
	return nil
}

// dropChain deletes one generation's keys.
func dropChain(db *store.Store, key string, dc diskChain) error {
	if err := db.Delete(chainBaseKey(key, dc.gen)); err != nil {
		return err
	}
	for i := 0; i < dc.deltas; i++ {
		if err := db.Delete(chainDeltaKey(key, dc.gen, i)); err != nil {
			return err
		}
	}
	return nil
}

// loadRecords rebuilds c.records, c.durable and c.chains from the store.
// A record that cannot be read back whole and checked — corrupt gob, bad
// head, a chain key missing, a frame failing its checksum, a chain that
// does not reassemble to the head's digest — is dropped: peers re-offer
// it by anti-entropy, exactly as for a corrupt frame. Chain keys no
// loaded head names (a generation whose head never landed, a generation
// the head moved away from, a delta past the head's count) are swept.
func (c *Center) loadRecords() {
	db := c.reg.Store()
	var torn []string
	_ = db.Scan(fedKeyPrefix, func(k string, raw []byte) error {
		var r Record
		if len(raw) > 0 && raw[0] == snapHeadMagic {
			var dc diskChain
			var err error
			if r, dc, err = loadChain(db, raw); err != nil || fedKeyPrefix+r.Key != k {
				torn = append(torn, k)
				return nil
			}
			c.chains[r.Key] = dc
		} else if err := transport.Decode(raw, &r); err != nil {
			return nil // corrupt frame; the peer re-offers it via anti-entropy
		}
		c.records[r.Key] = r
		if r.Kind == RecordSnapshot && !r.Deleted && r.Snap.Durable {
			c.durable[r.Key] = r // durability metadata survives a restart
		}
		return nil
	})
	// Best effort from here on: a key that survives is retried by the
	// next open, and a write over it wins regardless.
	for _, k := range torn {
		_ = db.Delete(k)
	}
	for _, k := range db.Keys(chainKeyPrefix) {
		key, gen, delta, ok := parseChainKey(k)
		if dc, named := c.chains[key]; !ok || !named || gen != dc.gen || delta >= dc.deltas {
			_ = db.Delete(k)
		}
	}
}

// loadChain reads the record a head describes and proves it whole.
func loadChain(db *store.Store, head []byte) (Record, diskChain, error) {
	r, dc, err := decodeSnapHead(head)
	if err != nil {
		return Record{}, diskChain{}, err
	}
	// Copied: a Get result is the store's own buffer, and the record
	// outlives the log segment that buffer belongs to.
	get := func(k string) ([]byte, error) {
		v, err := db.Get(k)
		return append([]byte(nil), v...), err
	}
	if r.Snap.Frame, err = get(chainBaseKey(r.Key, dc.gen)); err != nil {
		return Record{}, diskChain{}, err
	}
	for i := 0; i < dc.deltas; i++ {
		d, err := get(chainDeltaKey(r.Key, dc.gen, i))
		if err != nil {
			return Record{}, diskChain{}, err
		}
		r.Snap.Deltas = append(r.Snap.Deltas, d)
	}
	if err := r.Snap.Verify(); err != nil {
		return Record{}, diskChain{}, err
	}
	ts, err := r.Snap.Snapshot()
	if err != nil {
		return Record{}, diskChain{}, err
	}
	if state.WrapDigest(ts.Wrap) != r.Snap.StateDigest {
		return Record{}, diskChain{}, fmt.Errorf("%w: chain of %s does not reassemble to the head's state digest", errBadSnapHead, r.Key)
	}
	return r, dc, nil
}
