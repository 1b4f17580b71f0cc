package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// grantRecord is one dispatched grant observed by a collector goroutine.
type grantRecord struct {
	tenant string
	g      *Grant
}

// spawnWaiters starts n AcquireGrant calls for one tenant and reports each
// grant on the shared channel as the scheduler dispatches it.
func spawnWaiters(t *testing.T, a *Admission, tenant string, n, cost int, deadline time.Duration, grants chan<- grantRecord) {
	t.Helper()
	for i := 0; i < n; i++ {
		go func() {
			g, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: tenant, Cost: cost, Deadline: deadline})
			if err != nil {
				t.Errorf("%s: %v", tenant, err)
				return
			}
			grants <- grantRecord{tenant: tenant, g: g}
		}()
	}
}

// holdSlot occupies the shared slot pool with grants from a dedicated
// tenant, so a test can queue its real waiters deterministically before
// any dispatch happens.
func holdSlot(t *testing.T, a *Admission, n int) []*Grant {
	t.Helper()
	held := make([]*Grant, n)
	for i := range held {
		g, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "holder"})
		if err != nil {
			t.Fatalf("filling slot %d: %v", i, err)
		}
		held[i] = g
	}
	return held
}

// TestSchedDRRWeightedShares drives one shared slot over two continuously
// backlogged tenants with weights 1 and 3: over any whole number of DRR
// rotations the grant counts must split exactly 1:3, regardless of which
// tenant enqueued first.
func TestSchedDRRWeightedShares(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{
			"*":     {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000},
			"light": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000, Weight: 1},
			"heavy": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000, Weight: 3},
		},
		SchedConfig{Slots: 1, Quantum: 1})
	neverFire(a)

	held := holdSlot(t, a, 1)
	grants := make(chan grantRecord, 64)
	spawnWaiters(t, a, "light", 20, 1, 0, grants)
	spawnWaiters(t, a, "heavy", 20, 1, 0, grants)
	waitFor(t, func() bool {
		st := a.Stats()
		return st["light"].Queued == 20 && st["heavy"].Queued == 20
	})
	held[0].Release(0)

	// 16 grants = 4 full rotations of (1 light + 3 heavy).
	counts := map[string]int{}
	for i := 0; i < 16; i++ {
		r := <-grants
		counts[r.tenant]++
		r.g.Release(0)
	}
	if counts["light"] != 4 || counts["heavy"] != 12 {
		t.Fatalf("grant shares = %+v, want light=4 heavy=12 (weights 1:3)", counts)
	}
	// Drain the rest so the scheduler ends idle.
	for i := 0; i < 24; i++ {
		r := <-grants
		r.g.Release(0)
	}
	waitFor(t, func() bool {
		st := a.Stats()
		return st["light"].Active == 0 && st["heavy"].Active == 0 &&
			st["light"].Queued == 0 && st["heavy"].Queued == 0
	})
}

// TestSchedDeficitAccounting pins the deficit mechanics for a request
// whose cost exceeds the quantum: the bulk tenant must accumulate deficit
// across rotations (quantum per visit) while the cheap tenant keeps being
// served, and the bulk request dispatches exactly when the accumulated
// deficit covers its cost — it is neither starved nor served early.
func TestSchedDeficitAccounting(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 1, Quantum: 2})
	neverFire(a)

	held := holdSlot(t, a, 1)
	grants := make(chan grantRecord, 64)
	// "bulk" queues one cost-5 request first, so it is first in the ring;
	// "cheap" queues 12 cost-1 requests behind it.
	spawnWaiters(t, a, "bulk", 1, 5, 0, grants)
	waitFor(t, func() bool { return a.Stats()["bulk"].Queued == 1 })
	spawnWaiters(t, a, "cheap", 12, 1, 0, grants)
	waitFor(t, func() bool { return a.Stats()["cheap"].Queued == 12 })
	held[0].Release(0)

	// Quantum 2, bulk cost 5: bulk needs three visits (deficit 2, 4, 6).
	// Each rotation serves cheap twice in between, so the order is
	// cheap ×2, cheap ×2 (bulk at 4 after two visits), then on the third
	// rotation bulk at 6 ≥ 5 dispatches.
	var order []string
	for i := 0; i < 7; i++ {
		r := <-grants
		order = append(order, r.tenant)
		r.g.Release(0)
	}
	bulkAt := -1
	for i, name := range order {
		if name == "bulk" {
			bulkAt = i
			break
		}
	}
	if bulkAt != 4 {
		t.Fatalf("bulk dispatched at position %d of %v, want 4 (after two quantum-2 rotations)", bulkAt, order)
	}
	for i := 0; i < 6; i++ {
		r := <-grants
		r.g.Release(0)
	}
}

// TestSchedEDFCutAhead checks the deadline fast path: with the slot pool
// saturated by bulk traffic from another tenant, a deadline-stamped
// request is dispatched next — ahead of the round-robin order — and
// nearer deadlines beat farther ones.
func TestSchedEDFCutAhead(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 1, Quantum: 64})
	neverFire(a)

	held := holdSlot(t, a, 1)
	grants := make(chan grantRecord, 64)
	spawnWaiters(t, a, "bulk", 8, 1, 0, grants)
	waitFor(t, func() bool { return a.Stats()["bulk"].Queued == 8 })
	spawnWaiters(t, a, "slo-far", 1, 1, 5*time.Second, grants)
	waitFor(t, func() bool { return a.Stats()["slo-far"].Queued == 1 })
	spawnWaiters(t, a, "slo-near", 1, 1, time.Second, grants)
	waitFor(t, func() bool { return a.Stats()["slo-near"].Queued == 1 })
	held[0].Release(0)

	r1 := <-grants
	if r1.tenant != "slo-near" {
		t.Fatalf("first grant went to %s, want slo-near (earliest deadline)", r1.tenant)
	}
	r1.g.Release(0)
	r2 := <-grants
	if r2.tenant != "slo-far" {
		t.Fatalf("second grant went to %s, want slo-far", r2.tenant)
	}
	r2.g.Release(0)
	for i := 0; i < 8; i++ {
		r := <-grants
		if r.tenant != "bulk" {
			t.Fatalf("grant %d went to %s, want bulk", i+2, r.tenant)
		}
		r.g.Release(0)
	}
}

// TestSchedEDFBorrowBound checks that deadline cut-ahead is bounded by
// the tenant's DRR deficit: once a deadline tenant has borrowed a full
// quantum×weight beyond its share, its next deadline request stops
// jumping the ring until the deficit recovers through normal rotation.
func TestSchedEDFBorrowBound(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 1, Quantum: 1})
	neverFire(a)

	held := holdSlot(t, a, 1)
	grants := make(chan grantRecord, 64)
	// "slo" queues two deadline requests (the backlog keeps its deficit
	// alive); with quantum 1 and cost 1 it may borrow one grant of debt
	// (deficit −1) via EDF, then hits the borrow bound.
	spawnWaiters(t, a, "slo", 2, 1, time.Second, grants)
	waitFor(t, func() bool { return a.Stats()["slo"].Queued == 2 })
	spawnWaiters(t, a, "bulk", 6, 1, 0, grants)
	waitFor(t, func() bool { return a.Stats()["bulk"].Queued == 6 })
	held[0].Release(0)

	// slo #1 cuts ahead via EDF, charging its deficit to −1 — exactly the
	// borrow bound. slo #2 therefore may NOT cut ahead: bulk's DRR turn
	// runs first, slo's deficit recovers to 0 on its next ring visit, and
	// only then does slo #2 jump via EDF again.
	var order []string
	for i := 0; i < 8; i++ {
		r := <-grants
		order = append(order, r.tenant)
		r.g.Release(0)
	}
	want := []string{"slo", "bulk", "slo", "bulk", "bulk", "bulk", "bulk", "bulk"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v (borrow bound must defer slo #2 by one bulk grant)", order, want)
		}
	}
}

// TestSchedFIFOBaseline pins the fifo policy: with shared slots, grants
// follow global arrival order across tenants — no deadline cut-ahead, no
// weighting — which is the baseline the fairness harness compares DRR
// against.
func TestSchedFIFOBaseline(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{
			"*":     {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000},
			"heavy": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000, Weight: 8},
		},
		SchedConfig{Slots: 1, FIFO: true})
	neverFire(a)

	held := holdSlot(t, a, 1)
	grants := make(chan grantRecord, 64)
	// Interleave arrivals one at a time so the global order is pinned:
	// a, heavy, a-deadline — the deadline must NOT cut ahead under fifo,
	// and heavy's weight must not matter.
	spawnWaiters(t, a, "a", 1, 1, 0, grants)
	waitFor(t, func() bool { return a.Stats()["a"].Queued == 1 })
	spawnWaiters(t, a, "heavy", 1, 4, 0, grants)
	waitFor(t, func() bool { return a.Stats()["heavy"].Queued == 1 })
	spawnWaiters(t, a, "b", 1, 1, time.Millisecond, grants)
	waitFor(t, func() bool { return a.Stats()["b"].Queued == 1 })
	held[0].Release(0)

	want := []string{"a", "heavy", "b"}
	for i, name := range want {
		r := <-grants
		if r.tenant != name {
			t.Fatalf("fifo grant %d went to %s, want %s", i, r.tenant, name)
		}
		r.g.Release(0)
	}
}

// manualClock installs a settable token-bucket clock and returns its
// advance function.
func manualClock(a *Admission) func(time.Duration) {
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	a.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	return func(d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		now = now.Add(d)
	}
}

// TestTokenBucketRefill pins the quota bucket against a manual clock:
// spend drains tokens, refill restores them at exactly RefillPerSec up to
// the quota, rejection happens at zero, and Retry-After reports the
// exact time until one whole token exists.
func TestTokenBucketRefill(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {
		MaxConcurrent: 4, QueueDepth: 8, QueueWaitMS: 60000,
		CallQuota: 100, RefillPerSec: 10,
	}}, SchedConfig{})
	advance := manualClock(a)
	ctx := context.Background()

	// Spend the whole bucket in one run.
	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rel.Release(100)
	st := a.Stats()["t"]
	if st.QuotaRemaining != 0 || st.QuotaSpent != 100 {
		t.Fatalf("after spend: remaining=%v spent=%d, want 0/100", st.QuotaRemaining, st.QuotaSpent)
	}
	// Empty bucket rejects, and Retry-After is the exact refill time:
	// 1 token at 10 tokens/sec = 100ms.
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("acquire on empty bucket = %v, want ErrQuotaExhausted", err)
	}
	if d := a.RetryAfter("t", ErrQuotaExhausted); d != 100*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want exactly 100ms", d)
	}
	if st := a.Stats()["t"]; st.NextAdmitMS != 100 {
		t.Fatalf("NextAdmitMS = %d, want 100", st.NextAdmitMS)
	}

	// Half a second refills 5 tokens.
	advance(500 * time.Millisecond)
	if st := a.Stats()["t"]; st.QuotaRemaining != 5 {
		t.Fatalf("after 500ms: remaining=%v, want 5", st.QuotaRemaining)
	}
	rel, err = a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("acquire after refill: %v", err)
	}
	rel.Release(5)
	// The bucket never exceeds its quota, however long it idles.
	advance(time.Hour)
	if st := a.Stats()["t"]; st.QuotaRemaining != 100 {
		t.Fatalf("after an idle hour: remaining=%v, want capped at 100", st.QuotaRemaining)
	}
}

// TestTokenBucketOverspendDebt checks that a run charging more than the
// bucket holds drives it negative (the run was already admitted; the debt
// is real) and that refill pays the debt before serving new requests.
func TestTokenBucketOverspendDebt(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {
		MaxConcurrent: 4, QueueDepth: 8, QueueWaitMS: 60000,
		CallQuota: 50, RefillPerSec: 100,
	}}, SchedConfig{})
	advance := manualClock(a)
	ctx := context.Background()

	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rel.Release(80) // 30 over the bucket
	if st := a.Stats()["t"]; st.QuotaRemaining != -30 {
		t.Fatalf("after overspend: remaining=%v, want -30", st.QuotaRemaining)
	}
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("acquire in debt = %v, want ErrQuotaExhausted", err)
	}
	// 31 tokens at 100/sec: the debt plus one whole token takes 310ms.
	if d := a.RetryAfter("t", ErrQuotaExhausted); d != 310*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want exactly 310ms", d)
	}
	advance(310 * time.Millisecond)
	rel, err = a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("acquire after debt repaid: %v", err)
	}
	rel.Release(0)
}

// TestTokenBucketManualResetOnly pins the no-refill quota (RefillPerSec 0):
// an exhausted bucket stays exhausted — NextAdmitMS answers 0 ("waiting
// will not help") — until ResetQuota refills it to capacity.
func TestTokenBucketManualResetOnly(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {
		MaxConcurrent: 4, QueueDepth: 8, QueueWaitMS: 60000, CallQuota: 10,
	}}, SchedConfig{})
	advance := manualClock(a)
	ctx := context.Background()

	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rel.Release(10)
	advance(time.Hour) // no refill rate: time changes nothing
	st := a.Stats()["t"]
	if st.QuotaRemaining != 0 || st.NextAdmitMS != 0 {
		t.Fatalf("exhausted manual bucket: remaining=%v nextAdmit=%d, want 0/0", st.QuotaRemaining, st.NextAdmitMS)
	}
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("acquire = %v, want ErrQuotaExhausted", err)
	}
	if !a.ResetQuota("t") {
		t.Fatal("ResetQuota reported an unknown tenant")
	}
	st = a.Stats()["t"]
	if st.QuotaRemaining != 10 || st.QuotaSpent != 0 {
		t.Fatalf("after reset: remaining=%v spent=%d, want 10/0", st.QuotaRemaining, st.QuotaSpent)
	}
	rel, err = a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("acquire after reset: %v", err)
	}
	rel.Release(0)
}

// TestSchedPreemptVictimSelection pins maybePreemptLocked's choice: a
// deadline waiter that cannot dispatch asks the preemptible running grant
// with the latest (or no) deadline for its slot — never one at least as
// urgent as itself — and asks exactly one victim per waiter.
func TestSchedPreemptVictimSelection(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 3, Quantum: 64})
	neverFire(a)
	ctx := context.Background()

	// Three running grants: no deadline (preemptible), far deadline
	// (preemptible), near deadline (preemptible).
	gNone, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "none"})
	if err != nil {
		t.Fatal(err)
	}
	gFar, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "far", Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gNear, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "near", Deadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gNone.preemptible.Store(true)
	gFar.preemptible.Store(true)
	gNear.preemptible.Store(true)

	// A 5s-deadline waiter arrives with every slot busy: the victim must
	// be the deadline-less grant, not the far one (later than 5s but
	// deadline-less ranks later still) and never the near one.
	grants := make(chan grantRecord, 4)
	spawnWaiters(t, a, "slo", 1, 1, 5*time.Second, grants)
	waitFor(t, func() bool { return gNone.PreemptRequested() })
	if gFar.PreemptRequested() || gNear.PreemptRequested() {
		t.Fatal("preemption asked a deadlined grant while a deadline-less one ran")
	}

	// A second deadline waiter may claim the next-latest victim: far's
	// 10s deadline is after its 2s, so far is asked; near never is.
	spawnWaiters(t, a, "slo2", 1, 1, 2*time.Second, grants)
	waitFor(t, func() bool { return gFar.PreemptRequested() })
	if gNear.PreemptRequested() {
		t.Fatal("preemption asked a grant more urgent than the waiter")
	}

	// The victims yield at their round boundaries (Yield blocks until the
	// resumed run is re-granted, so each runs on its own goroutine); the
	// freed slots go to the deadline waiters first.
	yields := make(chan error, 2)
	go func() { yields <- gNone.Yield(ctx) }()
	go func() { yields <- gFar.Yield(ctx) }()
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		r := <-grants
		got[r.tenant] = true
		r.g.Release(0)
	}
	if !got["slo"] || !got["slo2"] {
		t.Fatalf("deadline waiters not dispatched after yields: %v", got)
	}
	for i := 0; i < 2; i++ {
		if err := <-yields; err != nil {
			t.Fatalf("yield %d did not resume: %v", i, err)
		}
	}
	gNone.Release(0)
	gFar.Release(0)
	gNear.Release(0)
	if n := a.Preemptions(); n != 2 {
		t.Fatalf("Preemptions() = %d, want 2", n)
	}
}

// TestSchedYieldHandoffNoStrandedWaiter is the pause handoff
// audit: when a preempted grant yields its slot, the freed slot must go to
// the deadline waiter immediately, and the yielded run must re-enter the
// queue and eventually resume — nobody waits forever and every counter
// conserves.
func TestSchedYieldHandoffNoStrandedWaiter(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 1, Quantum: 4})
	neverFire(a)
	ctx := context.Background()

	bulk, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "bulk", Cost: 8})
	if err != nil {
		t.Fatal(err)
	}
	bulk.preemptible.Store(true)

	grants := make(chan grantRecord, 4)
	spawnWaiters(t, a, "slo", 1, 1, time.Second, grants)
	waitFor(t, func() bool { return bulk.PreemptRequested() })

	// The bulk run reaches its round boundary and yields; the slot must
	// hand off to the SLO waiter, and the yield must block (resume waits
	// behind it).
	resumed := make(chan error, 1)
	go func() { resumed <- bulk.Yield(ctx) }()
	r := <-grants
	if r.tenant != "slo" {
		t.Fatalf("slot after yield went to %s, want slo", r.tenant)
	}
	select {
	case err := <-resumed:
		t.Fatalf("yield returned (%v) while the slot was still held", err)
	case <-time.After(20 * time.Millisecond):
	}
	r.g.Release(0)
	if err := <-resumed; err != nil {
		t.Fatalf("resume after release: %v", err)
	}
	bulk.Release(0)

	st := a.Stats()
	for _, name := range []string{"bulk", "slo"} {
		s := st[name]
		if s.Active != 0 || s.Queued != 0 || s.Admitted != s.Completed {
			t.Fatalf("%s not conserved after handoff: %+v", name, s)
		}
	}
	if st["bulk"].Preemptions != 1 {
		t.Fatalf("bulk preemptions = %d, want 1", st["bulk"].Preemptions)
	}
}

// TestSchedResumeAheadOfLaterArrivals checks the resumption ordering
// contract: a preempted run re-enters its tenant's queue at its ORIGINAL
// arrival order, so requests that arrived after it do not overtake it
// while it is paused.
func TestSchedResumeAheadOfLaterArrivals(t *testing.T) {
	a := NewScheduler(
		map[string]TenantConfig{"*": {MaxConcurrent: 64, QueueDepth: 64, QueueWaitMS: 60000}},
		SchedConfig{Slots: 1, Quantum: 64})
	neverFire(a)
	ctx := context.Background()

	bulk, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "bulk", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	bulk.preemptible.Store(true)

	grants := make(chan grantRecord, 8)
	// Later arrivals from the same tenant queue behind the running bulk.
	spawnWaiters(t, a, "bulk", 3, 1, 0, grants)
	waitFor(t, func() bool { return a.Stats()["bulk"].Queued == 3 })
	spawnWaiters(t, a, "slo", 1, 1, time.Second, grants)
	waitFor(t, func() bool { return bulk.PreemptRequested() })

	resumed := make(chan error, 1)
	go func() { resumed <- bulk.Yield(ctx) }()
	r := <-grants
	if r.tenant != "slo" {
		t.Fatalf("slot after yield went to %s, want slo", r.tenant)
	}
	r.g.Release(0)
	// The resumed run — original seq 1 — must get the slot back before
	// the three later bulk arrivals.
	if err := <-resumed; err != nil {
		t.Fatalf("resume: %v", err)
	}
	select {
	case r := <-grants:
		t.Fatalf("later arrival (%s) overtook the paused run", r.tenant)
	default:
	}
	bulk.Release(0)
	for i := 0; i < 3; i++ {
		r := <-grants
		r.g.Release(0)
	}
}

// TestSchedGrantReleaseIdempotent pins the exactly-once release contract:
// double Release must not double-charge quota or free a slot twice.
func TestSchedGrantReleaseIdempotent(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 2, QueueDepth: 8, QueueWaitMS: 60000, CallQuota: 100}}, SchedConfig{})
	g, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	g.Release(30)
	g.Release(30)
	st := a.Stats()["t"]
	if st.QuotaSpent != 30 || st.Completed != 1 || st.Active != 0 {
		t.Fatalf("after double release: %+v, want spent=30 completed=1 active=0", st)
	}
}
