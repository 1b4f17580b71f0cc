package server

import (
	"context"
	"math"
	"sync/atomic"
	"time"
)

// SchedConfig parameterizes the scheduler policy layer over the shared
// worker-slot pool. The zero value has no shared slots, so only the
// per-tenant limits bind.
type SchedConfig struct {
	// Slots is the shared worker-slot pool all tenants compete for
	// (0 = unbounded: per-tenant MaxConcurrent alone limits concurrency).
	Slots int `json:"slots,omitempty"`
	// Quantum is the DRR deficit replenished per round-robin visit, in
	// query-count cost units, multiplied by the tenant's Weight (default
	// 64). Smaller quanta interleave tenants more finely; larger ones
	// amortize bulk requests.
	Quantum int `json:"quantum,omitempty"`
	// FIFO dispatches in pure global arrival order (the baseline the
	// fairness harness compares DRR against): no cut-ahead, no weights,
	// no preemption. The default is deficit-round-robin weighted-fair
	// dispatch with earliest-deadline-first cut-ahead and deadline-aware
	// preemption.
	FIFO bool `json:"fifo,omitempty"`
}

// normalize fills in the quantum and resolves an unbounded pool to a
// bound no running count reaches, so dispatch never asks which it is.
func (c SchedConfig) normalize() SchedConfig {
	if c.Quantum <= 0 {
		c.Quantum = 64
	}
	if c.Slots <= 0 {
		c.Slots = math.MaxInt
	}
	return c
}

// Grant is an admitted request's hold on the scheduler: a slot, a quota
// charge pending, and — when the run is preemptible — the pause handshake
// (it is the run's repro.Yielder). Release must be called exactly once;
// Yield only from the goroutine that owns the run, which its optimizer
// does at a stop check, between oracle rounds.
type Grant struct {
	a           *Admission
	t           *tenant
	cost        float64
	seq         uint64
	deadline    time.Time
	hasDeadline bool

	// preempt is the scheduler's request for the slot; the run polls it at
	// its stop checks (PreemptRequested, through repro.WithYielder).
	preempt atomic.Bool
	// preemptible marks the run pausable: a lane of one
	// (Server.optimize). Only preemptible grants are chosen as victims.
	preemptible atomic.Bool
	// pausedFor sums the run's pauses, each Yield from call to return: the
	// re-grant waits the response adds to its admission wait. Written by
	// Yield and read after the run, both on the run's goroutine.
	pausedFor time.Duration

	// Guarded by a.mu.
	holding     bool // currently holds a slot
	released    bool
	preemptions int
}

// newWaiter builds the queue entry for this grant; a resumption keeps the
// grant's original seq so it re-enters ahead of later arrivals.
func (g *Grant) newWaiter(resume bool) *waiter {
	return &waiter{Grant: g, ch: make(chan struct{}), resume: resume}
}

// PreemptRequested reports whether the scheduler asked this run for its
// slot: the poll half of the pause, made at every stop check of the run —
// before each oracle round, round 1 included. The Yield that answers the
// request clears it.
func (g *Grant) PreemptRequested() bool { return g.preempt.Load() }

// Preemptions reports how many times this grant's run was paused.
func (g *Grant) Preemptions() int {
	g.a.mu.Lock()
	defer g.a.mu.Unlock()
	return g.preemptions
}

// Yield is the wait half of the pause: called by a run paused at a stop
// check, before its next oracle round, it gives the grant's slot back,
// lets the scheduler serve the nearer-deadline work that asked for it, and
// blocks until the scheduler re-grants a slot (the paused run re-enters
// its tenant's queue at its original arrival order). A nil return means
// the slot is held again and the run continues in place;
// ErrQueueTimeout/ErrCancelled mean the run stops with StopPreempted and
// its checkpoint, and the grant must still be Released with the spend so
// far.
func (g *Grant) Yield(ctx context.Context) error {
	defer func(start time.Time) { g.pausedFor += time.Since(start) }(time.Now())
	a := g.a
	a.mu.Lock()
	if !g.holding {
		a.mu.Unlock()
		return nil
	}
	a.vacateLocked(g)
	g.preempt.Store(false)
	g.preemptions++
	g.t.stats.Preemptions++
	a.preempts++
	w := g.newWaiter(true)
	a.enqueueLocked(w)
	a.dispatchLocked()
	if w.outcome == waiterGranted {
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	return a.await(ctx, w)
}

// Release frees the grant's slot (if still held), charges the tenant's
// quota bucket with the run's actual oracle-call spend, and dispatches
// queued work. Exactly-once: extra calls are no-ops. With a non-refilling
// quota that the charge just exhausted, the tenant's whole wait queue is
// cut — waiting cannot help until an operator resets the bucket, so the
// queued requests are rejected now instead of burning their wait
// deadline. (A refilling bucket keeps its queue: waiting does help.)
func (g *Grant) Release(oracleCalls int) {
	a := g.a
	a.mu.Lock()
	defer a.mu.Unlock()
	if g.released {
		return
	}
	g.released = true
	t := g.t
	t.quotaSpent += int64(oracleCalls)
	if t.cfg.CallQuota > 0 {
		a.refillLocked(t)
		t.tokens -= float64(oracleCalls)
	}
	t.stats.Completed++
	if g.holding {
		a.vacateLocked(g)
	}
	if t.cfg.CallQuota > 0 && t.cfg.RefillPerSec <= 0 && t.tokens <= 0 {
		for _, w := range t.queue {
			w.outcome = waiterQuotaCut
			t.stats.RejectedQuota++
			close(w.ch)
		}
		t.queue = t.queue[:0]
		a.dropRingLocked(t)
		t.deficit = 0
	}
	a.dispatchLocked()
}

// enqueueLocked inserts a waiter into its tenant's queue in policy order
// and registers the tenant in the DRR ring. Under DRR the queue is
// EDF-then-FIFO: deadline waiters first, earliest deadline first (ties by
// arrival), then deadline-less waiters in arrival order — a resumption's
// original seq puts it ahead of later arrivals. Under FIFO the queue is
// pure arrival order.
func (a *Admission) enqueueLocked(w *waiter) {
	t := w.t
	pos := len(t.queue)
	if a.sched.FIFO {
		for pos = 0; pos < len(t.queue); pos++ {
			if w.seq < t.queue[pos].seq {
				break
			}
		}
	} else if w.hasDeadline {
		for pos = 0; pos < len(t.queue); pos++ {
			q := t.queue[pos]
			if !q.hasDeadline || w.deadline.Before(q.deadline) ||
				(w.deadline.Equal(q.deadline) && w.seq < q.seq) {
				break
			}
		}
	} else {
		for pos = 0; pos < len(t.queue); pos++ {
			q := t.queue[pos]
			if q.hasDeadline {
				continue // the deadline prefix stays ahead
			}
			if w.seq < q.seq {
				break
			}
		}
	}
	t.queue = append(t.queue, nil)
	copy(t.queue[pos+1:], t.queue[pos:])
	t.queue[pos] = w
	if !t.inRing {
		t.inRing = true
		a.ring = append(a.ring, t)
	}
}

// removeWaiterLocked takes a waiter out of its tenant's queue (timeout,
// cancellation, or queue-full rejection).
func (a *Admission) removeWaiterLocked(w *waiter) {
	t := w.t
	for i, q := range t.queue {
		if q == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	if len(t.queue) == 0 {
		a.dropRingLocked(t)
		t.deficit = 0
	}
}

// dropRingLocked removes a tenant from the DRR ring, keeping the rotation
// pointer on the same neighbor. Removing the pointed-at tenant clears the
// visit's topped flag: the pointer now names a tenant that has not had
// this rotation's replenish yet.
func (a *Admission) dropRingLocked(t *tenant) {
	if !t.inRing {
		return
	}
	t.inRing = false
	for i, rt := range a.ring {
		if rt == t {
			a.ring = append(a.ring[:i], a.ring[i+1:]...)
			if i < a.ringIdx {
				a.ringIdx--
			} else if i == a.ringIdx {
				a.topped = false
			}
			break
		}
	}
	if len(a.ring) == 0 {
		a.ringIdx = 0
	} else if a.ringIdx >= len(a.ring) {
		a.ringIdx = 0
	}
}

// vacateLocked gives back the slot g holds: g leaves the running set.
func (a *Admission) vacateLocked(g *Grant) {
	g.holding = false
	g.t.active--
	a.running--
	for i, ag := range a.activeG {
		if ag == g {
			a.activeG = append(a.activeG[:i], a.activeG[i+1:]...)
			return
		}
	}
}

// dispatchLocked grants slots to queued waiters until the pool is
// saturated or nothing is eligible. Every path that frees capacity
// (Release, Yield) or adds demand (AcquireGrant) calls it under the
// scheduler mutex, so no waiter is ever stranded with a free slot.
func (a *Admission) dispatchLocked() {
	for {
		if a.running >= a.sched.Slots {
			return
		}
		w := a.pickLocked()
		if w == nil {
			return
		}
		a.grantLocked(w)
	}
}

// pickLocked chooses the next waiter to grant, or nil.
func (a *Admission) pickLocked() *waiter {
	if a.sched.FIFO {
		return a.pickSeqLocked()
	}
	return a.pickDRRLocked()
}

// eligibleHead is a tenant's next dispatchable waiter: the queue head,
// when the tenant is under its own concurrency cap.
func eligibleHead(t *tenant) *waiter {
	if len(t.queue) == 0 || t.active >= t.cfg.MaxConcurrent {
		return nil
	}
	return t.queue[0]
}

// pickSeqLocked dispatches in global arrival order, the FIFO policy's
// order. With per-tenant queues already sorted, the minimum head seq
// across tenants is the global minimum.
func (a *Admission) pickSeqLocked() *waiter {
	var best *waiter
	for _, t := range a.ring {
		h := eligibleHead(t)
		if h == nil {
			continue
		}
		if best == nil || h.seq < best.seq {
			best = h
		}
	}
	return best
}

// pickDRRLocked is the weighted-fair pick: first earliest-deadline-first
// cut-ahead across tenants — a deadline waiter may borrow up to one
// quantum×weight of deficit debt to jump the round-robin order — then
// classic deficit round-robin: the rotation pointer parks on one tenant,
// replenishes its deficit by quantum×weight ONCE per visit (the topped
// flag), serves it while the deficit covers its head's cost, and only
// then advances — so over any backlogged window each tenant's service is
// proportional to its weight, and a large request just accumulates
// deficit across rotations instead of starving or being starved.
func (a *Admission) pickDRRLocked() *waiter {
	var best *waiter
	for _, t := range a.ring {
		h := eligibleHead(t)
		if h == nil || !h.hasDeadline {
			continue
		}
		if t.deficit <= -float64(a.sched.Quantum*t.cfg.Weight) {
			continue // borrow exhausted: back to weighted order
		}
		if best == nil || h.deadline.Before(best.deadline) ||
			(h.deadline.Equal(best.deadline) && h.seq < best.seq) {
			best = h
		}
	}
	if best != nil {
		return best
	}
	for {
		n := len(a.ring)
		if n == 0 {
			return nil
		}
		progressed := false
		for i := 0; i < n; i++ {
			t := a.ring[a.ringIdx]
			h := eligibleHead(t)
			if h != nil {
				if !a.topped {
					a.topped = true
					t.deficit += float64(a.sched.Quantum * t.cfg.Weight)
					progressed = true
				}
				if t.deficit >= h.cost {
					return h // sticky: the pointer stays until the deficit runs dry
				}
				// Leaving a topped tenant ends its visit — that is progress
				// too: the next pass may replenish it afresh. Without this a
				// lone tenant whose visit just drained would stall forever.
				if a.topped {
					progressed = true
				}
			}
			a.ringIdx = (a.ringIdx + 1) % n
			a.topped = false
		}
		if !progressed {
			return nil
		}
	}
}

// grantLocked hands a slot to a waiter: removes it from its queue,
// charges its cost against the tenant's deficit, and wakes it. The
// waiter's own goroutine does the admission bookkeeping (settle).
func (a *Admission) grantLocked(w *waiter) {
	t := w.t
	for i, q := range t.queue {
		if q == w {
			t.queue = append(t.queue[:i], t.queue[i+1:]...)
			break
		}
	}
	t.deficit -= w.cost
	if len(t.queue) == 0 {
		a.dropRingLocked(t)
		t.deficit = 0 // busy period over: debts and credits expire together
	}
	t.active++
	a.running++
	w.outcome = waiterGranted
	w.holding = true
	a.activeG = append(a.activeG, w.Grant)
	close(w.ch)
}

// maybePreemptLocked asks a running bulk grant for its slot when a
// nearer-deadline waiter cannot be dispatched: the victim is the
// preemptible running grant with the latest deadline (no deadline ranks
// last of all; ties go to the longest-running, which has the most
// checkpointed progress). One victim per waiter — the pause lands at
// the victim's next round boundary, the victim Yields, and the freed slot
// dispatches to the earliest-deadline waiter.
func (a *Admission) maybePreemptLocked(w *waiter) {
	if a.sched.FIFO || !w.hasDeadline || w.preemptAsked || a.running < a.sched.Slots {
		return
	}
	var victim *Grant
	for _, g := range a.activeG {
		if !g.preemptible.Load() || g.preempt.Load() {
			continue
		}
		if g.hasDeadline && !g.deadline.After(w.deadline) {
			continue // running work is at least as urgent
		}
		if victim == nil || laterVictim(g, victim) {
			victim = g
		}
	}
	if victim != nil {
		victim.preempt.Store(true)
		w.preemptAsked = true
	}
}

// laterVictim reports whether g is a better preemption victim than cur:
// deadline-less beats deadlined, later deadline beats earlier, then the
// longest-running (smallest seq — the most checkpointed progress to
// preserve) breaks ties.
func laterVictim(g, cur *Grant) bool {
	switch {
	case !g.hasDeadline && cur.hasDeadline:
		return true
	case g.hasDeadline && !cur.hasDeadline:
		return false
	case g.hasDeadline && cur.hasDeadline && !g.deadline.Equal(cur.deadline):
		return g.deadline.After(cur.deadline)
	default:
		return g.seq < cur.seq
	}
}
