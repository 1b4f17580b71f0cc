package physical

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/memo"
	"repro/internal/strictjson"
)

// snapshotVersion is the wire version of CacheSnapshot. Decoders reject
// any other value with a typed *SnapshotError rather than guessing.
const snapshotVersion = 1

// CacheSnapshot is a portable, versioned image of a SharedCache: every
// live cost key and memoized oracle value, grouped by search-space
// namespace, in canonical order. It exists so a warm replica can hand its
// learning to a cold one — the serving tier's GET/PUT /v1/cache/snapshot
// and the mqoserver -warm-from flag move exactly this object.
//
// The encoding is canonical: namespaces sort by fingerprint, entries sort
// by (group, order, compute, mask), and every 64-bit quantity (namespace,
// mask, float64 bit pattern) is a fixed-width lowercase hex string, so
// export → import → export round-trips byte-identically and checksums are
// meaningful. Values are pure functions of their namespaced keys, so
// importing a snapshot can never change an optimization result — only how
// many oracle calls and cost recomputations reaching it costs.
type CacheSnapshot struct {
	// Version is the snapshot wire version (currently 1).
	Version int `json:"version"`
	// Scope is an owner-chosen label naming what the cache was learned
	// for (the serving tier uses the catalog pool key). Import verifies
	// it, so a snapshot for one catalog configuration cannot be merged
	// into a session serving another.
	Scope string `json:"scope"`
	// Namespaces holds the entries grouped by Searcher.Fingerprint(),
	// ascending by fingerprint.
	Namespaces []SnapshotNamespace `json:"namespaces"`
	// Checksum is the fixed-width hex FNV-1a hash of the canonical
	// content (version, scope, and every namespace and entry in order).
	Checksum string `json:"checksum"`
}

// SnapshotNamespace is one search-space namespace's entries.
type SnapshotNamespace struct {
	// NS is the 16-hex-digit searcher fingerprint the entries live under.
	NS string `json:"ns"`
	// Entries are the namespace's cache entries in canonical order:
	// ascending by (group, order, compute, mask). Benefit-oracle entries
	// use group -1 (see SharedCache.GetBenefit).
	Entries []SnapshotEntry `json:"entries"`
}

// SnapshotEntry is one cached value. Mask and V are 16-hex-digit strings
// (the raw uint64 and the float64 bit pattern respectively) so no
// precision is lost to decimal formatting.
type SnapshotEntry struct {
	G       int    `json:"g"`
	Ord     int    `json:"ord"`
	Compute bool   `json:"compute"`
	Mask    string `json:"mask"`
	V       string `json:"v"`
}

// SnapshotError is the typed error every snapshot validation failure
// surfaces. Reason is one of "version", "scope", "checksum" or
// "malformed"; Detail says what exactly was wrong.
type SnapshotError struct {
	Reason string
	Detail string
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("cache snapshot %s: %s", e.Reason, e.Detail)
}

func snapErrf(reason, format string, args ...any) *SnapshotError {
	return &SnapshotError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

func hex16(v uint64) string { return fmt.Sprintf("%016x", v) }

func parseHex16(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	for i := 0; i < 16; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return 0, false
		}
	}
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

// checksum hashes the canonical content. It deliberately covers the hex
// strings' decoded values, not the JSON bytes, so the checksum is a
// content hash independent of encoder whitespace.
func (s *CacheSnapshot) checksum() string {
	h := newFNV64()
	h.i(s.Version)
	h.str(s.Scope)
	h.i(len(s.Namespaces))
	for _, ns := range s.Namespaces {
		nsv, _ := parseHex16(ns.NS)
		h.u64(nsv)
		h.i(len(ns.Entries))
		for _, e := range ns.Entries {
			h.i(e.G)
			h.i(e.Ord)
			h.b(e.Compute)
			mv, _ := parseHex16(e.Mask)
			h.u64(mv)
			vv, _ := parseHex16(e.V)
			h.u64(vv)
		}
	}
	return hex16(uint64(h))
}

// Export snapshots every live entry under the given scope label. The
// result is canonical (sorted namespaces and entries, fixed-width hex),
// so equal cache contents always export to byte-identical encodings.
func (c *SharedCache) Export(scope string) *CacheSnapshot {
	byNS := make(map[uint64][]sharedKV)
	c.mu.Lock()
	for ns, t := range c.spaces {
		if t.n == 0 {
			continue
		}
		kvs := make([]sharedKV, 0, t.n)
		kvs = append(kvs, t.held...)
		t.each(func(k cacheKey, v float64) { kvs = append(kvs, sharedKV{k: k, v: v}) })
		byNS[ns] = kvs
	}
	c.mu.Unlock()
	c.benMu.RLock()
	for k, v := range c.benefits {
		byNS[k.ns] = append(byNS[k.ns], sharedKV{k: cacheKey{g: benefitGroup, mask: k.key}, v: v})
	}
	c.benMu.RUnlock()

	snap := &CacheSnapshot{Version: snapshotVersion, Scope: scope}
	nss := make([]uint64, 0, len(byNS))
	for ns := range byNS {
		nss = append(nss, ns)
	}
	sort.Slice(nss, func(a, b int) bool { return nss[a] < nss[b] })
	for _, ns := range nss {
		kvs := sortKVs(byNS[ns])
		entries := make([]SnapshotEntry, len(kvs))
		for i, e := range kvs {
			entries[i] = SnapshotEntry{
				G:       int(e.k.g),
				Ord:     int(e.k.ord),
				Compute: e.k.compute,
				Mask:    hex16(e.k.mask),
				V:       hex16(math.Float64bits(e.v)),
			}
		}
		snap.Namespaces = append(snap.Namespaces, SnapshotNamespace{NS: hex16(ns), Entries: entries})
	}
	snap.Checksum = snap.checksum()
	return snap
}

// entryLess is the canonical entry order: ascending (G, Ord, Compute,
// Mask), with compute=false before compute=true. Mask compares as the
// decoded uint64, which for fixed-width hex equals string order.
func entryLess(a, b *SnapshotEntry) bool {
	if a.G != b.G {
		return a.G < b.G
	}
	if a.Ord != b.Ord {
		return a.Ord < b.Ord
	}
	if a.Compute != b.Compute {
		return !a.Compute
	}
	return a.Mask < b.Mask
}

// Import merges a snapshot into the cache, returning how many entries it
// carried. The snapshot's scope must equal the caller's expected scope and
// its version must be current — both checked before anything merges, with
// a typed *SnapshotError on mismatch. Malformed hex fields are likewise
// rejected up front, so an Import either merges everything or nothing.
func (c *SharedCache) Import(snap *CacheSnapshot, scope string) (int, error) {
	if snap == nil {
		return 0, snapErrf("malformed", "nil snapshot")
	}
	if snap.Version != snapshotVersion {
		return 0, snapErrf("version", "got %d, want %d", snap.Version, snapshotVersion)
	}
	if snap.Scope != scope {
		return 0, snapErrf("scope", "snapshot is for %q, importer expects %q", snap.Scope, scope)
	}
	type nsBatch struct {
		ns              uint64
		costs, benefits []sharedKV
	}
	batches := make([]nsBatch, 0, len(snap.Namespaces))
	n := 0
	for i := range snap.Namespaces {
		nsStr := &snap.Namespaces[i]
		ns, ok := parseHex16(nsStr.NS)
		if !ok {
			return 0, snapErrf("malformed", "namespace %d: bad fingerprint %q", i, nsStr.NS)
		}
		b := nsBatch{ns: ns}
		for j := range nsStr.Entries {
			e := &nsStr.Entries[j]
			mask, ok := parseHex16(e.Mask)
			if !ok {
				return 0, snapErrf("malformed", "namespace %s entry %d: bad mask %q", nsStr.NS, j, e.Mask)
			}
			bits, ok := parseHex16(e.V)
			if !ok {
				return 0, snapErrf("malformed", "namespace %s entry %d: bad value %q", nsStr.NS, j, e.V)
			}
			kv := sharedKV{
				k: cacheKey{g: memo.GroupID(e.G), ord: ordID(e.Ord), compute: e.Compute, mask: mask},
				v: math.Float64frombits(bits),
			}
			if kv.k == (cacheKey{g: benefitGroup, mask: mask}) {
				b.benefits = append(b.benefits, kv)
			} else {
				b.costs = append(b.costs, kv)
			}
		}
		batches = append(batches, b)
		n += len(nsStr.Entries)
	}
	c.mu.Lock()
	var last *nsTable
	for _, b := range batches {
		if len(b.costs) > 0 {
			last = c.space(b.ns)
			c.touch(last)
			c.importCosts(last, b.costs)
		}
	}
	if last != nil {
		c.evict(last)
	}
	c.mu.Unlock()
	for _, b := range batches {
		for _, e := range b.benefits {
			c.PutBenefit(b.ns, e.k.mask, e.v)
		}
	}
	return n, nil
}

// importCosts merges cost entries into a namespace: into its table when a
// searcher has given it a geometry, else into the held list the first
// searcher to resolve the namespace folds in (see nsTable).
func (c *SharedCache) importCosts(t *nsTable, kvs []sharedKV) {
	if t.slots != nil {
		c.insert(t, sortKVs(kvs))
		return
	}
	t.held = sortKVs(append(t.held, kvs...))
	c.total += len(t.held) - t.n
	t.n = len(t.held)
}

// Encode renders the snapshot as canonical JSON (stable field order,
// two-space indent, trailing newline). Equal snapshots always encode to
// byte-identical output.
func (s *CacheSnapshot) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeCacheSnapshot strictly parses and fully validates a snapshot:
// unknown fields, a wrong version, malformed hex, out-of-order or
// duplicate keys, a namespace without entries (Export never emits one),
// and checksum mismatches are all rejected with a typed *SnapshotError. A
// snapshot that decodes successfully re-encodes to the byte-identical
// input modulo JSON whitespace — and, because validation enforces
// canonical order, Encode of the decoded value is itself canonical.
func DecodeCacheSnapshot(data []byte) (*CacheSnapshot, error) {
	var snap CacheSnapshot
	if err := strictjson.Decode(data, &snap); err != nil {
		return nil, snapErrf("malformed", "%v", err)
	}
	if snap.Version != snapshotVersion {
		return nil, snapErrf("version", "got %d, want %d", snap.Version, snapshotVersion)
	}
	for i := range snap.Namespaces {
		ns := &snap.Namespaces[i]
		if _, ok := parseHex16(ns.NS); !ok {
			return nil, snapErrf("malformed", "namespace %d: bad fingerprint %q", i, ns.NS)
		}
		if i > 0 && !(snap.Namespaces[i-1].NS < ns.NS) {
			return nil, snapErrf("malformed", "namespace %q out of order after %q", ns.NS, snap.Namespaces[i-1].NS)
		}
		if len(ns.Entries) == 0 {
			return nil, snapErrf("malformed", "namespace %s has no entries", ns.NS)
		}
		for j := range ns.Entries {
			e := &ns.Entries[j]
			if _, ok := parseHex16(e.Mask); !ok {
				return nil, snapErrf("malformed", "namespace %s entry %d: bad mask %q", ns.NS, j, e.Mask)
			}
			if _, ok := parseHex16(e.V); !ok {
				return nil, snapErrf("malformed", "namespace %s entry %d: bad value %q", ns.NS, j, e.V)
			}
			if j > 0 {
				prev := &ns.Entries[j-1]
				if !entryLess(prev, e) {
					return nil, snapErrf("malformed", "namespace %s entry %d out of canonical order", ns.NS, j)
				}
			}
		}
	}
	if want := snap.checksum(); snap.Checksum != want {
		return nil, snapErrf("checksum", "got %q, want %q", snap.Checksum, want)
	}
	return &snap, nil
}
