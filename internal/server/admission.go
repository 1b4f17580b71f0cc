package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// TenantConfig bounds one tenant's use of the service. The zero value
// means "all defaults"; normalize fills them in. Durations travel as
// milliseconds so the config is plain JSON (Config.Tenants, the
// mqoserver -tenants table, is a map of these).
type TenantConfig struct {
	// MaxConcurrent is the number of requests the tenant may have running
	// at once (default 4).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// QueueDepth bounds the tenant's wait queue; a request arriving with
	// the queue full is rejected with 429. Zero means the default (16); a
	// negative value disables queueing entirely, so a tenant with all
	// slots busy is rejected immediately.
	QueueDepth int `json:"queue_depth,omitempty"`
	// QueueWaitMS is the longest a request may wait for a slot before
	// being rejected with 503 (default 5000).
	QueueWaitMS int64 `json:"queue_wait_ms,omitempty"`
	// TimeBudgetMS caps each admitted request's optimization wall clock
	// (0 = none); requests asking for more are clamped to it.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// CallBudget caps each admitted request's oracle calls (0 = none);
	// requests asking for more are clamped to it.
	CallBudget int `json:"call_budget,omitempty"`
	// CallQuota is the tenant's oracle-call allowance (0 = unlimited).
	// Completed requests are charged their actual Telemetry.OracleCalls
	// against a token bucket of this size; once the bucket is empty new
	// requests are rejected with 429 until tokens refill (RefillPerSec)
	// or an operator resets the bucket (ResetQuota /
	// POST /v1/tenants/{name}/reset).
	CallQuota int64 `json:"call_quota,omitempty"`
	// RefillPerSec refills the quota bucket continuously at this many
	// oracle-call tokens per second (0 = no refill: the quota is
	// manual-reset-only). 429 Retry-After reflects the actual time
	// until a token is available.
	RefillPerSec float64 `json:"refill_per_sec,omitempty"`
	// Weight is the tenant's deficit-round-robin share of the scheduler's
	// worker slots (default 1): with slots contended, tenants receive
	// service in proportion to their weights.
	Weight int `json:"weight,omitempty"`
	// DeadlineMS is the tenant's default relative deadline (0 = none).
	// A request with a deadline is scheduled earliest-deadline-first
	// within its tenant, may cut ahead of other tenants within its DRR
	// deficit, and may preempt a running preemptible request whose
	// deadline is later or absent.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Defaults applied by normalize.
const (
	defaultMaxConcurrent = 4
	defaultQueueDepth    = 16
	defaultQueueWaitMS   = 5000
)

func (c TenantConfig) normalize() TenantConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = defaultMaxConcurrent
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0 // no queueing: reject as soon as slots are full
	} else if c.QueueDepth == 0 {
		c.QueueDepth = defaultQueueDepth
	}
	if c.QueueWaitMS <= 0 {
		c.QueueWaitMS = defaultQueueWaitMS
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

// Validate rejects scheduler fields no normalization can repair: negative
// weights, deadlines or quotas, and refill rates that are negative, NaN,
// or infinite. (QueueDepth's negative form is meaningful — "no
// queueing" — so the limit fields stay normalize-only.)
func (c TenantConfig) Validate() error {
	if c.Weight < 0 {
		return fmt.Errorf("tenant config: negative weight %d", c.Weight)
	}
	if c.RefillPerSec < 0 || math.IsNaN(c.RefillPerSec) || math.IsInf(c.RefillPerSec, 0) {
		return fmt.Errorf("tenant config: refill_per_sec %v is not a finite non-negative rate", c.RefillPerSec)
	}
	if c.DeadlineMS < 0 {
		return fmt.Errorf("tenant config: negative deadline_ms %d", c.DeadlineMS)
	}
	if c.CallQuota < 0 {
		return fmt.Errorf("tenant config: negative call_quota %d", c.CallQuota)
	}
	return nil
}

func (c TenantConfig) queueWait() time.Duration {
	return time.Duration(c.QueueWaitMS) * time.Millisecond
}

// TenantStats are one tenant's admission counters, served by /v1/stats.
// Admitted = Completed + Active once the tenant is idle; Rejected* and
// QueueTimeouts count requests that never reached a session.
type TenantStats struct {
	Admitted          int64 `json:"admitted"`
	Completed         int64 `json:"completed"`
	RejectedQueueFull int64 `json:"rejected_queue_full"`
	RejectedQuota     int64 `json:"rejected_quota"`
	QueueTimeouts     int64 `json:"queue_timeouts"`
	Cancelled         int64 `json:"cancelled_in_queue"`
	Active            int   `json:"active"`
	Queued            int   `json:"queued"`
	QuotaSpent        int64 `json:"quota_spent"`
	QuotaLimit        int64 `json:"quota_limit,omitempty"`
	// Preemptions counts this tenant's runs paused at a round boundary to
	// serve a nearer-deadline request (each continued in place when
	// re-granted, or stopped and returned its checkpoint).
	Preemptions int64 `json:"preemptions,omitempty"`
	// Weight is the tenant's effective DRR weight.
	Weight int `json:"weight,omitempty"`
	// QuotaRemaining is the token bucket's current level (refilled to the
	// snapshot instant); negative after an overspend.
	QuotaRemaining float64 `json:"quota_remaining,omitempty"`
	// RefillPerSec echoes the tenant's refill rate.
	RefillPerSec float64 `json:"refill_per_sec,omitempty"`
	// NextAdmitMS is the time until a whole token is available when the
	// bucket is empty and refilling (0 when admittable now or when only a
	// manual reset can help).
	NextAdmitMS int64 `json:"next_admit_ms,omitempty"`
}

// Admission reasons a request can be turned away with.
var (
	// ErrQueueFull: the tenant's wait queue is at QueueDepth (429).
	ErrQueueFull = errors.New("admission: queue full")
	// ErrQueueTimeout: the queue wait exceeded QueueWaitMS (503).
	ErrQueueTimeout = errors.New("admission: queue-wait deadline exceeded")
	// ErrQuotaExhausted: the tenant's oracle-call quota is spent (429).
	ErrQuotaExhausted = errors.New("admission: oracle-call quota exhausted")
	// ErrCancelled: the client went away while queued.
	ErrCancelled = errors.New("admission: cancelled while queued")
	// ErrUnknownTenant: the tenant table has no "*" entry and does not
	// name the tenant (403).
	ErrUnknownTenant = errors.New("admission: unknown tenant")
	// ErrTenantOverflow: the controller is tracking its maximum number of
	// distinct tenants and refuses to allocate state for new names (429).
	ErrTenantOverflow = errors.New("admission: too many distinct tenants")
)

// waiter outcomes, guarded by the scheduler mutex.
const (
	waiterPending  = iota // still queued
	waiterGranted         // the dispatcher granted a slot
	waiterQuotaCut        // rejected in the queue: the tenant quota is spent
)

// waiter is one queued request (or one paused run waiting for its slot).
// outcome is guarded by the scheduler mutex: the dispatcher either grants
// a slot (waiterGranted) or, once a non-refilling quota is spent, cuts
// the whole queue (waiterQuotaCut), closing ch either way. A waiter whose
// timer or context fires concurrently re-checks the outcome under the
// mutex (settle) and, if it was granted in that same instant, is admitted
// — the grant wins the race, so the slot is used rather than leaked.
type waiter struct {
	// Grant is the request the waiter queues for: its tenant, arrival seq
	// (a resumption keeps its original), DRR cost and deadline, none of
	// which change after AcquireGrant.
	*Grant
	ch           chan struct{}
	outcome      int
	resume       bool // a preempted run re-entering; not a new admission
	preemptAsked bool // this waiter already claimed its one preemption victim
}

// tenant is the runtime admission state of one tenant; all mutable fields
// are guarded by the controller's scheduler mutex.
type tenant struct {
	name string
	cfg  TenantConfig
	// retrySeq numbers this tenant's rejections, advancing its
	// deterministic Retry-After jitter sequence (see RetryAfter).
	retrySeq atomic.Uint64

	active  int
	queue   []*waiter // EDF-then-FIFO under DRR; pure arrival order under FIFO
	deficit float64   // DRR deficit counter, in cost units
	inRing  bool

	// Token-bucket quota state, lazily initialized to a full bucket on
	// first inspection so directly-constructed tenants (tests) work.
	bktInit    bool
	tokens     float64
	lastRefill time.Time

	quotaSpent int64
	stats      TenantStats
}

// maxDynamicTenants bounds how many distinct tenant names a controller
// whose table has a "*" entry will lazily allocate state for, so
// attacker-chosen tenant names cannot grow the map (and the /v1/stats
// payload) without bound.
// Pre-declared tenants don't count against it.
const maxDynamicTenants = 4096

// anyTenant is the tenant-table key whose config covers every tenant the
// table does not name.
const anyTenant = "*"

// Admission is the scheduling admission controller: per-tenant
// concurrency limits and bounded wait queues, plus — when a
// SchedConfig gives it shared worker slots — deficit-round-robin
// weighted-fair dispatch, earliest-deadline-first cut-ahead, token-bucket
// quota refill, and deadline-aware preemption of running grants (see
// sched.go). All methods are safe for concurrent use; one mutex guards
// the whole scheduler state, so dispatch decisions are serialized.
type Admission struct {
	mu       sync.Mutex
	tenants  map[string]*tenant
	declared int // tenants pre-declared at construction
	defCfg   TenantConfig
	strict   bool // the table has no "*" entry: unnamed tenants are refused
	sched    SchedConfig

	running  int       // grants currently holding a shared slot
	seq      uint64    // global arrival counter
	ring     []*tenant // tenants with queued waiters, DRR visit order
	ringIdx  int
	topped   bool     // ring[ringIdx] already got this visit's DRR replenish
	activeG  []*Grant // grants currently holding a slot (preemption victims)
	preempts int64    // total preemptions issued

	// newTimer is the queue-wait clock hook; tests swap it for a manual
	// trigger so timeout/handoff races are driven deterministically.
	newTimer func(time.Duration) (<-chan time.Time, func() bool)
	// rand64 is the Retry-After jitter RNG hook (splitmix64 by default);
	// tests swap it to pin or remove the jitter.
	rand64 func(uint64) uint64
	// now is the token-bucket clock hook; tests swap it for a manual
	// clock so refill accounting is deterministic.
	now func() time.Time
	// retrySeq numbers rejections of tenants with no allocated state, so
	// their jitter sequence advances without growing the tenant map.
	retrySeq atomic.Uint64
}

// NewScheduler builds a controller with a scheduling policy over a shared
// worker-slot pool (see SchedConfig; its zero value has no shared slots,
// so only the per-tenant limits bind) and a tenant table: the "*" entry
// configures every tenant the table does not name; a table without it,
// even an empty one, admits only the tenants it names; a nil table admits
// every tenant under TenantConfig's defaults.
func NewScheduler(tenants map[string]TenantConfig, sc SchedConfig) *Admission {
	def, open := tenants[anyTenant]
	a := &Admission{
		tenants: make(map[string]*tenant, len(tenants)),
		defCfg:  def.normalize(),
		strict:  tenants != nil && !open,
		sched:   sc.normalize(),
		newTimer: func(d time.Duration) (<-chan time.Time, func() bool) {
			t := time.NewTimer(d)
			return t.C, t.Stop
		},
		rand64: splitmix64,
		now:    time.Now,
	}
	for name, c := range tenants {
		if name != anyTenant {
			a.tenants[name] = &tenant{name: name, cfg: c.normalize()}
		}
	}
	a.declared = len(a.tenants)
	return a
}

// tenantLocked resolves (or lazily creates) a tenant's state; the caller
// holds a.mu.
func (a *Admission) tenantLocked(name string) (*tenant, error) {
	t, ok := a.tenants[name]
	if !ok {
		if a.strict {
			return nil, ErrUnknownTenant
		}
		if len(a.tenants)-a.declared >= maxDynamicTenants {
			return nil, ErrTenantOverflow
		}
		t = &tenant{name: name, cfg: a.defCfg}
		a.tenants[name] = t
	}
	return t, nil
}

// Config reports the effective limits of a tenant: its declared (or
// lazily created) config, or the controller default for names it has
// never seen.
func (a *Admission) Config(name string) TenantConfig {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t, ok := a.tenants[name]; ok {
		return t.cfg
	}
	return a.defCfg
}

// refillLocked brings a tenant's quota bucket current: lazily filled to
// capacity on first touch, then refilled at RefillPerSec up to capacity.
func (a *Admission) refillLocked(t *tenant) {
	now := a.now()
	if !t.bktInit {
		t.bktInit = true
		t.tokens = float64(t.cfg.CallQuota)
		t.lastRefill = now
		return
	}
	if t.cfg.RefillPerSec > 0 {
		if dt := now.Sub(t.lastRefill); dt > 0 {
			t.tokens = math.Min(float64(t.cfg.CallQuota), t.tokens+t.cfg.RefillPerSec*dt.Seconds())
		}
	}
	t.lastRefill = now
}

// nextAdmitLocked is the time until the bucket holds a whole token (zero
// when it already does, or when only a manual reset can help).
func (a *Admission) nextAdmitLocked(t *tenant) time.Duration {
	if t.tokens >= 1 || t.cfg.RefillPerSec <= 0 {
		return 0
	}
	return time.Duration((1 - t.tokens) / t.cfg.RefillPerSec * float64(time.Second))
}

// AdmitRequest describes one request to the scheduler.
type AdmitRequest struct {
	// Tenant is the requesting tenant's name.
	Tenant string
	// Cost is the request's work estimate in query-count units (min 1):
	// the DRR deficit charge, so a 64-query bulk request draws 64× the
	// deficit of an interactive single query.
	Cost int
	// Deadline is the request's relative SLO deadline; 0 falls back to
	// the tenant's DeadlineMS (and to "none" when that is 0 too).
	Deadline time.Duration
}

// AcquireGrant admits one request under the scheduling policy, blocking
// in the tenant's queue when no slot is available; on failure it returns
// one of the Err* reasons. The returned Grant must be Released exactly
// once with the request's total oracle-call spend (0 for requests that
// never ran); preemptible grants additionally expose
// PreemptRequested/Yield (see sched.go). ctx aborts the queue wait.
func (a *Admission) AcquireGrant(ctx context.Context, req AdmitRequest) (*Grant, error) {
	a.mu.Lock()
	t, err := a.tenantLocked(req.Tenant)
	if err != nil {
		a.mu.Unlock()
		return nil, err
	}
	if t.cfg.CallQuota > 0 {
		a.refillLocked(t)
		if t.tokens <= 0 {
			t.stats.RejectedQuota++
			a.mu.Unlock()
			return nil, ErrQuotaExhausted
		}
	}
	g := &Grant{a: a, t: t, cost: math.Max(1, float64(req.Cost)), seq: a.nextSeqLocked()}
	rel := req.Deadline
	if rel == 0 && t.cfg.DeadlineMS > 0 {
		rel = time.Duration(t.cfg.DeadlineMS) * time.Millisecond
	}
	if rel > 0 {
		g.deadline = a.now().Add(rel)
		g.hasDeadline = true
	}
	w := g.newWaiter(false)
	a.enqueueLocked(w)
	a.dispatchLocked()
	if w.outcome == waiterGranted {
		t.stats.Admitted++
		a.mu.Unlock()
		return g, nil
	}
	if len(t.queue)-1 >= t.cfg.QueueDepth { // waiters besides w
		a.removeWaiterLocked(w)
		t.stats.RejectedQueueFull++
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	a.maybePreemptLocked(w)
	a.mu.Unlock()
	if err := a.await(ctx, w); err != nil {
		return nil, err
	}
	return g, nil
}

// await blocks a queued waiter until the dispatcher resolves it, its
// tenant's queue wait runs out or ctx ends, whichever comes first, and
// settles the race under the scheduler mutex.
func (a *Admission) await(ctx context.Context, w *waiter) error {
	timerC, stopTimer := a.newTimer(w.t.cfg.queueWait())
	defer stopTimer()
	select {
	case <-w.ch:
		return a.settle(w, nil, nil)
	case <-timerC:
		return a.settle(w, &w.t.stats.QueueTimeouts, ErrQueueTimeout)
	case <-ctx.Done():
		return a.settle(w, &w.t.stats.Cancelled, ErrCancelled)
	}
}

func (a *Admission) nextSeqLocked() uint64 {
	a.seq++
	return a.seq
}

// settle resolves a waiter that woke up (slot granted, queue cut on quota
// exhaustion, timeout, or cancellation — the races between them are
// decided here, under the scheduler mutex). A still-pending waiter is
// removed from the queue and rejected with reason; a granted one is
// admitted even if its timer fired in the same instant (the grant won the
// race); a quota-cut one reports ErrQuotaExhausted, already counted at
// the cut.
func (a *Admission) settle(w *waiter, counter *int64, reason error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch w.outcome {
	case waiterGranted:
		if !w.resume {
			w.t.stats.Admitted++
		}
		return nil
	case waiterQuotaCut:
		return ErrQuotaExhausted
	default: // still queued: remove and reject with the caller's reason.
		// Unreachable from the ch-closed wakeup (an outcome is always set
		// before ch closes), so counter/reason are non-nil here.
		a.removeWaiterLocked(w)
		if counter != nil {
			*counter++
		}
		if reason == nil {
			reason = ErrCancelled
		}
		return reason
	}
}

// ResetQuota refills the named tenant's quota bucket to capacity and
// zeroes its recorded spend. It reports false for tenants the controller
// has never seen.
func (a *Admission) ResetQuota(name string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	t, ok := a.tenants[name]
	if !ok {
		return false
	}
	t.quotaSpent = 0
	t.bktInit = true
	t.tokens = float64(t.cfg.CallQuota)
	t.lastRefill = a.now()
	return true
}

// Preemptions reports the total preemptions the scheduler has issued.
func (a *Admission) Preemptions() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.preempts
}

// Stats snapshots every tenant's counters, keyed by tenant name.
func (a *Admission) Stats() map[string]TenantStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]TenantStats, len(a.tenants))
	for _, t := range a.tenants {
		s := t.stats
		s.Active = t.active
		s.Queued = len(t.queue)
		s.QuotaSpent = t.quotaSpent
		s.QuotaLimit = t.cfg.CallQuota
		s.Weight = t.cfg.Weight
		s.RefillPerSec = t.cfg.RefillPerSec
		if t.cfg.CallQuota > 0 {
			a.refillLocked(t)
			s.QuotaRemaining = t.tokens
			s.NextAdmitMS = int64(math.Ceil(float64(a.nextAdmitLocked(t)) / float64(time.Millisecond)))
		}
		out[t.name] = s
	}
	return out
}

// RetryAfter suggests how long a rejected request should back off. Quota
// exhaustion with a refill rate answers the exact time until a token is
// available — the bucket is deterministic, so the client returns exactly
// when it can be served. Otherwise: the tenant's queue-wait deadline for
// congestion, a minute for manual-reset quota — jittered
// deterministically into [base/2, base] per tenant. The jitter spreads
// one tenant's herd of simultaneous rejections over the window instead of
// re-admitting it as a thundering spike, and it is a pure function of
// (tenant, rejection ordinal): the k-th rejection of a tenant always
// backs off by the same amount, so tests — and the router's retry budget
// accounting — can predict the exact sequence.
func (a *Admission) RetryAfter(name string, reason error) time.Duration {
	cfg := a.defCfg
	var seq uint64
	a.mu.Lock()
	if t, ok := a.tenants[name]; ok {
		cfg = t.cfg
		if errors.Is(reason, ErrQuotaExhausted) && t.cfg.RefillPerSec > 0 {
			a.refillLocked(t)
			d := a.nextAdmitLocked(t)
			a.mu.Unlock()
			if d < time.Millisecond {
				d = time.Millisecond
			}
			return d
		}
		seq = t.retrySeq.Add(1)
	} else {
		seq = a.retrySeq.Add(1)
	}
	a.mu.Unlock()
	base := cfg.queueWait()
	if errors.Is(reason, ErrQuotaExhausted) {
		base = time.Minute
	}
	return jitterBackoff(a.rand64, name, seq, base)
}

// jitterBackoff maps (tenant, ordinal) onto [base/2, base] through the
// RNG: rand64 over an FNV-1a tenant seed mixed with the ordinal. rand64 is
// a hook (splitmix64 by default) so tests can pin the spread.
func jitterBackoff(rand64 func(uint64) uint64, name string, seq uint64, base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	seed := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		seed ^= uint64(name[i])
		seed *= 1099511628211
	}
	r := rand64(seed + seq*0x9e3779b97f4a7c15)
	off := time.Duration(r % (uint64(base)/2 + 1))
	return base - off
}

// splitmix64 is the default jitter RNG: a tiny, stateless, well-mixed
// permutation of uint64, so equal inputs give equal jitter on every
// replica.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
