package server

import (
	"sync"
	"time"
)

// Degraded serving clamps each request's budgets to these, on top of any
// tenant or request budget.
const (
	degradedTimeBudgetMS = 2000
	degradedCallBudget   = 50000
)

// BreakerConfig parameterizes the per-catalog circuit breaker. Fields are
// plain JSON (milliseconds, counts) so the mqoserver flag surface can
// carry them. The zero value enables the breaker with generous defaults —
// a healthy server never notices it.
type BreakerConfig struct {
	// Disabled turns the breaker off: every catalog serves closed forever.
	Disabled bool `json:"disabled,omitempty"`
	// Threshold is the consecutive-failure count (recovered panics or
	// time-budget deadline stops) that moves a closed catalog to degraded
	// serving, and again a degraded one to open, where requests are
	// rejected outright; and the consecutive-success count that closes a
	// degraded catalog again (default 3).
	Threshold int `json:"threshold,omitempty"`
	// CooldownMS is how long an open catalog rejects before a single probe
	// request is let through in degraded mode (default 10000).
	CooldownMS int64 `json:"cooldown_ms,omitempty"`
}

func (c BreakerConfig) normalize() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 3
	}
	if c.CooldownMS <= 0 {
		c.CooldownMS = 10000
	}
	return c
}

func (c BreakerConfig) cooldown() time.Duration {
	return time.Duration(c.CooldownMS) * time.Millisecond
}

// breakerState is the per-catalog serving mode.
type breakerState int

const (
	// breakerClosed: healthy, serve normally.
	breakerClosed breakerState = iota
	// breakerDegraded: repeated faults; serve with clamped budgets and the
	// cheap LazyGreedy fallback, flagged degraded in the response.
	breakerDegraded
	// breakerOpen: still failing while degraded; reject with 503 +
	// Retry-After until the cooldown admits a probe.
	breakerOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerDegraded:
		return "degraded"
	case breakerOpen:
		return "open"
	}
	return "unknown"
}

// breakerEntry is one catalog's breaker state. failures and successes are
// consecutive counts within the current state; probing marks the single
// post-cooldown trial request of an open breaker.
type breakerEntry struct {
	state     breakerState
	failures  int
	successes int
	openedAt  time.Time
	probing   bool
}

// breaker is the per-poolKey circuit breaker. Failures are recovered
// panics and deadline stops; successes are completed runs. Entries are
// created lazily on the first recorded event, so an all-healthy server
// carries no breaker state at all.
type breaker struct {
	cfg     BreakerConfig
	mu      sync.Mutex
	entries map[poolKey]*breakerEntry
	now     func() time.Time // test hook
}

func newBreaker(cfg BreakerConfig) *breaker {
	return &breaker{
		cfg:     cfg.normalize(),
		entries: make(map[poolKey]*breakerEntry),
		now:     time.Now,
	}
}

// admit decides how a request on key may be served: normally
// (false,0,true), degraded (true,0,true), or not at all (_,retry,false —
// the breaker is open and the cooldown has retry left). After the
// cooldown one request is admitted as a degraded probe; its outcome
// decides between reopening and recovery.
func (b *breaker) admit(key poolKey) (degraded bool, retry time.Duration, ok bool) {
	if b.cfg.Disabled {
		return false, 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil || e.state == breakerClosed {
		return false, 0, true
	}
	if e.state == breakerDegraded {
		return true, 0, true
	}
	cool := e.openedAt.Add(b.cfg.cooldown())
	if now := b.now(); !now.Before(cool) && !e.probing {
		e.probing = true
		return true, 0, true
	} else if remaining := cool.Sub(now); remaining > 0 {
		return false, remaining, false
	}
	// Cooldown elapsed but a probe is already in flight: hold the line
	// until it reports.
	return false, b.cfg.cooldown(), false
}

// entry lazily allocates the key's state.
func (b *breaker) entry(key poolKey) *breakerEntry {
	e := b.entries[key]
	if e == nil {
		e = &breakerEntry{}
		b.entries[key] = e
	}
	return e
}

// recordSuccess reports one completed run on key.
func (b *breaker) recordSuccess(key poolKey) {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[key]
	if e == nil {
		return // closed with no history: nothing to track
	}
	e.probing = false
	switch e.state {
	case breakerClosed:
		e.failures = 0
	case breakerDegraded:
		e.failures = 0
		e.successes++
		if e.successes >= b.cfg.Threshold {
			delete(b.entries, key) // fully healthy again
		}
	case breakerOpen:
		// A straggler admitted before the trip (or the probe) finished
		// cleanly: the catalog can work, so close down to degraded rather
		// than keep rejecting until the cooldown.
		e.state = breakerDegraded
		e.failures = 0
		e.successes = 1
	}
}

// recordFailure reports one recovered panic or deadline stop on key.
func (b *breaker) recordFailure(key poolKey) {
	if b.cfg.Disabled {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entry(key)
	e.probing = false
	e.successes = 0
	switch e.state {
	case breakerClosed:
		e.failures++
		if e.failures >= b.cfg.Threshold {
			e.state = breakerDegraded
			e.failures = 0
		}
	case breakerDegraded:
		e.failures++
		if e.failures >= b.cfg.Threshold {
			e.state = breakerOpen
			e.failures = 0
			e.openedAt = b.now()
		}
	case breakerOpen:
		e.openedAt = b.now() // failed probe or straggler: extend the cooldown
	}
}

// BreakerStats is one catalog's breaker state in /v1/stats and /healthz.
type BreakerStats struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	CooldownRemainingMS int64  `json:"cooldown_remaining_ms,omitempty"`
}

// snapshot reports every catalog with non-trivial breaker state, keyed by
// the catalog's pool-key string. Healthy catalogs are omitted.
func (b *breaker) snapshot() map[string]BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.entries) == 0 {
		return nil
	}
	now := b.now()
	out := make(map[string]BreakerStats, len(b.entries))
	for k, e := range b.entries {
		st := BreakerStats{State: e.state.String(), ConsecutiveFailures: e.failures}
		if e.state == breakerOpen {
			if remaining := e.openedAt.Add(b.cfg.cooldown()).Sub(now); remaining > 0 {
				st.CooldownRemainingMS = remaining.Milliseconds()
			}
		}
		out[k.String()] = st
	}
	return out
}
