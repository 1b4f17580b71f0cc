package cluster

import (
	"fmt"
	"sort"
)

// vnodes is the virtual-node count per replica. 64 points per replica
// keep the largest arc a single replica owns within a few percent of fair
// for small clusters, which is what bounds how much load shifts when one
// replica joins or leaves. It is a constant so that every router's ring
// is a function of the member set alone.
const vnodes = 64

// fnv1a64 hashes a string (FNV-1a, 64-bit) — the ring's only hash. It is
// stable across processes and platforms, so every router instance built
// over the same member list computes the identical ring.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// replica.
type ringPoint struct {
	hash    uint64
	replica int // index into Ring.replicas
}

// Ring is a consistent-hash ring over a fixed replica list. It is
// immutable after construction — membership change means building a new
// Ring, which is cheap (O(replicas·vnodes·log)) and keeps every lookup
// lock-free. Determinism is contractual: two rings built from the same
// member set (in any input order) produce identical preference orders for
// every key, so independent routers agree on placement without talking to
// each other, and a membership change re-routes only the keys whose arcs
// the joining/leaving replica owned.
type Ring struct {
	replicas []string
	points   []ringPoint
}

// NewRing builds a ring over the replica names (base URLs, for the
// router). Duplicates are dropped; the input order is irrelevant (members
// are sorted first, so the ring is a pure function of the member set).
func NewRing(replicas []string) *Ring {
	uniq := make([]string, 0, len(replicas))
	seen := make(map[string]bool, len(replicas))
	for _, r := range replicas {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	sort.Strings(uniq)
	ring := &Ring{replicas: uniq}
	ring.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for i, r := range uniq {
		for v := 0; v < vnodes; v++ {
			ring.points = append(ring.points, ringPoint{
				hash:    fnv1a64(fmt.Sprintf("%s#%d", r, v)),
				replica: i,
			})
		}
	}
	sort.Slice(ring.points, func(a, b int) bool {
		pa, pb := ring.points[a], ring.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return pa.replica < pb.replica // total order even on hash collisions
	})
	return ring
}

// Replicas returns the member list (sorted, deduplicated).
func (r *Ring) Replicas() []string { return r.replicas }

// Owner returns the primary replica for a key — the first entry of
// Order(key) — or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	o := r.Order(key)
	if len(o) == 0 {
		return ""
	}
	return o[0]
}

// Order returns every replica in the key's preference order: the
// clockwise walk of the ring starting at hash(key), keeping each
// replica's first appearance. The first entry is the key's home; a router
// that finds it unhealthy or saturated spills to the next, so failover
// targets are as deterministic as primary placement. The returned slice
// is freshly allocated.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := fnv1a64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.replicas))
	seen := make(map[int]bool, len(r.replicas))
	for i := 0; i < len(r.points) && len(out) < len(r.replicas); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}
