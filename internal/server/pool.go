package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/tpcd"
)

// poolKey identifies one catalog configuration: sessions are shared by
// every request naming the same scale factor and operator set, so their
// cross-call cost caches warm each other.
type poolKey struct {
	sf       float64
	extended bool
}

func (k poolKey) String() string {
	if k.extended {
		return fmt.Sprintf("sf=%g+hash", k.sf)
	}
	return fmt.Sprintf("sf=%g", k.sf)
}

// poolEntry is one pooled session with its recency stamp and pin count.
type poolEntry struct {
	key     poolKey
	sess    *repro.Session
	lastUse time.Time
	// refs counts in-flight requests pinning the session. An entry evicted
	// or quarantined while pinned is doomed instead of retired on the spot:
	// it leaves the map immediately (new requests build a fresh session)
	// but its cache invalidation and stats fold wait for the last release,
	// so an in-flight Optimize never has its shared cache flushed from
	// under it.
	refs   int
	doomed bool
}

// sessionPool lazily creates and caches repro.Sessions keyed by catalog.
// At most max sessions are kept: creating one past the bound evicts the
// least-recently-used entry. Sessions handed out by acquire are
// refcount-pinned until their release is called; eviction and quarantine
// of a pinned session defer its retirement (cache invalidation + stats
// fold into the retired aggregate) to the last release.
type sessionPool struct {
	mu      sync.Mutex
	max     int
	entries map[poolKey]*poolEntry
	// retired aggregates the lifetime Session.Stats of every session the
	// pool has dropped (evicted or quarantined), so the telemetry
	// conservation audit — pooled stats + retired stats = sum over
	// responses — keeps balancing across session churn.
	retired      repro.SessionStats
	retiredCount int
	now          func() time.Time // test hook
}

func newSessionPool(max int) *sessionPool {
	if max <= 0 {
		max = 4
	}
	return &sessionPool{
		max:     max,
		entries: make(map[poolKey]*poolEntry),
		now:     time.Now,
	}
}

// acquire returns the session for the key pinned against retirement,
// creating it on first use, plus the release the caller MUST invoke
// exactly once when done with the session. The catalog and session are
// built outside the pool mutex so one request's cold-catalog construction
// never stalls requests on warm keys (two concurrent cold requests may
// both build; the loser's session is discarded before anything used it).
func (p *sessionPool) acquire(key poolKey) (*repro.Session, func(), error) {
	faultinject.Hit(faultinject.PoolGet)
	p.mu.Lock()
	if e, ok := p.entries[key]; ok {
		e.lastUse = p.now()
		e.refs++
		p.mu.Unlock()
		return e.sess, func() { p.release(e) }, nil
	}
	p.mu.Unlock()

	sess, err := repro.NewSession(tpcd.Catalog(key.sf), cost.Default(),
		repro.WithExtendedOps(key.extended))
	if err != nil {
		return nil, nil, err
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	if e, ok := p.entries[key]; ok { // a concurrent builder won the race
		e.lastUse = p.now()
		e.refs++
		return e.sess, func() { p.release(e) }, nil
	}
	if len(p.entries) >= p.max {
		p.evictLRULocked()
	}
	e := &poolEntry{key: key, sess: sess, lastUse: p.now(), refs: 1}
	p.entries[key] = e
	return e.sess, func() { p.release(e) }, nil
}

// peek returns the pooled session for key pinned against retirement —
// without creating one — plus the release the caller MUST invoke exactly
// once. It deliberately does not refresh the LRU stamp: a snapshot scrape
// is not serving traffic and must not keep a cold catalog resident.
func (p *sessionPool) peek(key poolKey) (*repro.Session, func(), bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[key]
	if !ok {
		return nil, nil, false
	}
	e.refs++
	return e.sess, func() { p.release(e) }, true
}

// release unpins one acquire; the last release of a doomed entry performs
// the deferred retirement.
func (p *sessionPool) release(e *poolEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e.refs--
	if e.doomed && e.refs == 0 {
		p.retireLocked(e)
	}
}

// retireLocked folds the dead session's lifetime counters into the
// retired aggregate and invalidates its caches, which drops the cost
// tables, the free workers and the compiled DAGs, so the memory is released
// even while a straggler still holds the session. Only called once per
// entry: from the dooming site when unpinned, else from the last release.
func (p *sessionPool) retireLocked(e *poolEntry) {
	p.retired.Add(e.sess.Stats())
	p.retiredCount++
	e.sess.InvalidateCache()
}

// evictLRULocked drops the least-recently-used entry, preferring unpinned
// victims; when every entry is pinned the LRU one is doomed and retired
// at its last release.
func (p *sessionPool) evictLRULocked() {
	faultinject.Hit(faultinject.PoolEvict)
	var victim *poolEntry
	for _, e := range p.entries {
		if e.refs == 0 && (victim == nil || e.lastUse.Before(victim.lastUse)) {
			victim = e
		}
	}
	if victim == nil {
		for _, e := range p.entries {
			if victim == nil || e.lastUse.Before(victim.lastUse) {
				victim = e
			}
		}
	}
	if victim == nil {
		return
	}
	delete(p.entries, victim.key)
	if victim.refs > 0 {
		victim.doomed = true
		return
	}
	p.retireLocked(victim)
}

// quarantine removes the key's entry iff it still holds sess (a later
// rebuild must not be punished for its predecessor's fault) — used when a
// request's session recovered a panic and its internal caches are no
// longer trusted. Pinned sessions are doomed; the next request on the key
// builds a fresh session.
func (p *sessionPool) quarantine(key poolKey, sess *repro.Session) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[key]
	if !ok || e.sess != sess || e.doomed {
		return
	}
	delete(p.entries, key)
	if e.refs > 0 {
		e.doomed = true
		return
	}
	p.retireLocked(e)
}

// retiredStats snapshots the retirement aggregate.
func (p *sessionPool) retiredStats() (repro.SessionStats, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retired, p.retiredCount
}

// PoolEntryStats is one pooled session's view in /v1/stats.
type PoolEntryStats struct {
	Catalog     string             `json:"catalog"`
	IdleNS      int64              `json:"idle_ns"`
	Session     repro.SessionStats `json:"session"`
	ExtendedOps bool               `json:"extended_ops"`
	SF          float64            `json:"sf"`
	Pinned      int                `json:"pinned"`
	// SharedCacheEntries and CacheHitRate describe the session's warmth:
	// how many cross-call cache entries it holds, and what fraction of
	// the cost keys its runs needed were served from a cache instead of
	// recomputed. The router's load generator scrapes these to show how
	// warm each replica is per catalog key.
	SharedCacheEntries int     `json:"shared_cache_entries"`
	CacheHitRate       float64 `json:"cache_hit_rate"`
}

// stats snapshots every pooled session.
func (p *sessionPool) stats() []PoolEntryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	out := make([]PoolEntryStats, 0, len(p.entries))
	for k, e := range p.entries {
		ss := e.sess.Stats()
		pe := PoolEntryStats{
			Catalog:            k.String(),
			IdleNS:             now.Sub(e.lastUse).Nanoseconds(),
			Session:            ss,
			ExtendedOps:        k.extended,
			SF:                 k.sf,
			Pinned:             e.refs,
			SharedCacheEntries: e.sess.CacheEntries(),
		}
		if denom := ss.CacheHits + ss.SharedHits + ss.ComputedKeys; denom > 0 {
			pe.CacheHitRate = float64(ss.CacheHits+ss.SharedHits) / float64(denom)
		}
		out = append(out, pe)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Catalog < out[j].Catalog })
	return out
}
