package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestAdmissionConcurrencyAndQueueFull fills a tenant's slots and queue,
// then checks the overflow request is rejected immediately with
// ErrQueueFull while the queued one is admitted FIFO when a slot frees.
func TestAdmissionConcurrencyAndQueueFull(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 2, QueueDepth: 1, QueueWaitMS: 60000}}, SchedConfig{})
	ctx := context.Background()

	rel1, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}

	// Third request queues; acquire it on a goroutine.
	admitted := make(chan *Grant, 1)
	go func() {
		rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
		if err != nil {
			t.Errorf("queued request rejected: %v", err)
			admitted <- nil
			return
		}
		admitted <- rel
	}()
	waitFor(t, func() bool { return a.Stats()["t"].Queued == 1 })

	// Fourth request sees a full queue: immediate 429-class rejection.
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire = %v, want ErrQueueFull", err)
	}

	rel1.Release(10) // frees a slot -> the queued waiter is admitted
	rel3 := <-admitted
	if rel3 == nil {
		t.FailNow()
	}
	st := a.Stats()["t"]
	if st.Admitted != 3 || st.RejectedQueueFull != 1 || st.Active != 2 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 3 admitted, 1 queue-full, 2 active, 0 queued", st)
	}
	rel2.Release(0)
	rel3.Release(5)
	st = a.Stats()["t"]
	if st.Active != 0 || st.QuotaSpent != 15 {
		t.Fatalf("after release: %+v, want 0 active, 15 quota spent", st)
	}
}

// TestAdmissionFIFOOrder pins that freed slots go to waiters in arrival
// order.
func TestAdmissionFIFOOrder(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 60000}}, SchedConfig{})
	ctx := context.Background()
	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		// Start waiters strictly one after another so queue order is known.
		started := make(chan struct{})
		go func() {
			close(started)
			r, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
			if err != nil {
				t.Errorf("waiter %d rejected: %v", i, err)
				wg.Done()
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r.Release(0)
			wg.Done()
		}()
		<-started
		waitFor(t, func() bool { return a.Stats()["t"].Queued == i+1 })
	}

	rel.Release(0) // cascade: each release hands the slot to the next waiter
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order = %v, want [0 1 2]", order)
	}
}

// TestAdmissionQueueWaitDeadline: a queued request whose wait exceeds the
// tenant's deadline is rejected with ErrQueueTimeout and removed from the
// queue.
func TestAdmissionQueueWaitDeadline(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 30}}, SchedConfig{})
	ctx := context.Background()
	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQueueTimeout) {
		t.Fatalf("queued acquire = %v, want ErrQueueTimeout", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timeout took %v, deadline is 30ms", d)
	}
	st := a.Stats()["t"]
	if st.QueueTimeouts != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 queue timeout, 0 queued", st)
	}
	rel.Release(0)
	// The slot is free again: the next request is admitted directly.
	rel2, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("post-timeout acquire failed: %v", err)
	}
	rel2.Release(0)
}

// TestAdmissionCancelWhileQueued: cancelling the context of a queued
// request removes it and reports ErrCancelled.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 60000}}, SchedConfig{})
	rel, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
		errc <- err
	}()
	waitFor(t, func() bool { return a.Stats()["t"].Queued == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled acquire = %v, want ErrCancelled", err)
	}
	st := a.Stats()["t"]
	if st.Cancelled != 1 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 1 cancelled, 0 queued", st)
	}
	rel.Release(0)
}

// TestAdmissionQuota: once completed requests have spent the tenant's
// cumulative oracle-call quota, new requests are rejected until ResetQuota.
func TestAdmissionQuota(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 4, CallQuota: 100}}, SchedConfig{})
	ctx := context.Background()
	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	rel.Release(100) // spends the whole quota
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"}); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("acquire after quota spend = %v, want ErrQuotaExhausted", err)
	}
	st := a.Stats()["t"]
	if st.RejectedQuota != 1 || st.QuotaSpent != 100 || st.QuotaLimit != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if !a.ResetQuota("t") {
		t.Fatal("ResetQuota reported unknown tenant")
	}
	rel2, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("acquire after reset = %v", err)
	}
	rel2.Release(1)
	if a.ResetQuota("never-seen") {
		t.Fatal("ResetQuota invented a tenant")
	}
}

// TestAdmissionQuotaCutsQueue: when a completing request spends the last
// of the tenant's quota, requests already waiting in the queue are
// rejected immediately with the quota reason instead of burning their
// wait deadline on a slot that could no longer help them.
func TestAdmissionQuotaCutsQueue(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 60000, CallQuota: 10}}, SchedConfig{})
	ctx := context.Background()
	rel, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "t"})
			errs <- err
		}()
	}
	waitFor(t, func() bool { return a.Stats()["t"].Queued == 2 })
	rel.Release(10) // spends the whole quota: the queue is cut, not handed the slot
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrQuotaExhausted) {
			t.Fatalf("queued acquire after quota spend = %v, want ErrQuotaExhausted", err)
		}
	}
	st := a.Stats()["t"]
	if st.RejectedQuota != 2 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v, want 2 quota rejections, idle tenant", st)
	}
}

// TestAdmissionDynamicTenantCap: a controller whose table has a "*" entry refuses to
// allocate state beyond maxDynamicTenants lazily-created names, so
// request-invented tenant names cannot grow it without bound.
func TestAdmissionDynamicTenantCap(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {}, "declared": {}}, SchedConfig{})
	a.mu.Lock()
	for i := 0; i < maxDynamicTenants; i++ {
		name := fmt.Sprintf("dyn-%d", i)
		a.tenants[name] = &tenant{name: name, cfg: a.defCfg}
	}
	a.mu.Unlock()
	if _, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "one-too-many"}); !errors.Is(err, ErrTenantOverflow) {
		t.Fatalf("acquire past the tenant cap = %v, want ErrTenantOverflow", err)
	}
	// Existing tenants — declared or dynamic — still work.
	for _, name := range []string{"declared", "dyn-0"} {
		rel, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: name})
		if err != nil {
			t.Fatalf("existing tenant %q rejected: %v", name, err)
		}
		rel.Release(0)
	}
}

// TestAdmissionTenantTable pins the tenant table's rule: a nil table
// admits every tenant under the defaults; a "*" entry configures every
// tenant the table does not name and is not itself a declared tenant; a
// table without "*", even an empty one, admits only the tenants it names
// and still serves them.
func TestAdmissionTenantTable(t *testing.T) {
	admits := func(a *Admission, name string) bool {
		t.Helper()
		g, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: name})
		if errors.Is(err, ErrUnknownTenant) {
			return false
		}
		if err != nil {
			t.Fatalf("tenant %q: %v", name, err)
		}
		g.Release(0)
		return true
	}
	open := NewScheduler(nil, SchedConfig{})
	if !admits(open, "stranger") {
		t.Fatal("a nil table refused a tenant")
	}
	if got, want := open.Config("stranger"), (TenantConfig{}).normalize(); got != want {
		t.Fatalf("nil table: stranger runs under %+v, want the defaults %+v", got, want)
	}

	star := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 2, Weight: 3}, "known": {}}, SchedConfig{})
	if !admits(star, "stranger") || !admits(star, "known") {
		t.Fatal(`a table with "*" refused a tenant`)
	}
	if got := star.Config("stranger"); got.MaxConcurrent != 2 || got.Weight != 3 {
		t.Fatalf(`unnamed tenant runs under %+v, want the "*" entry's limits`, got)
	}
	if got := star.Config("known"); got.MaxConcurrent != defaultMaxConcurrent || got.Weight != 1 {
		t.Fatalf(`named tenant runs under %+v, want its own entry's limits`, got)
	}
	if _, ok := star.Stats()["*"]; ok {
		t.Fatal(`"*" is reported as a tenant`)
	}

	strict := NewScheduler(map[string]TenantConfig{"known": {}}, SchedConfig{})
	if admits(strict, "stranger") || !admits(strict, "known") {
		t.Fatal(`a table without "*" must refuse stranger and admit known`)
	}
	if admits(NewScheduler(map[string]TenantConfig{}, SchedConfig{}), "stranger") {
		t.Fatal("an empty table admitted a tenant")
	}
}

// TestAdmissionTenantsIsolated: one tenant saturating its limits does not
// affect another's admission.
func TestAdmissionTenantsIsolated(t *testing.T) {
	// QueueDepth -1 normalizes to "no queueing": reject as soon as the
	// slots are full.
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: -1, QueueWaitMS: 30}}, SchedConfig{})
	ctx := context.Background()
	relA, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// "a" is saturated (no queue slots) ...
	if _, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "a"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated tenant acquire = %v, want ErrQueueFull", err)
	}
	// ... but "b" sails through.
	relB, err := a.AcquireGrant(ctx, AdmitRequest{Tenant: "b"})
	if err != nil {
		t.Fatalf("tenant b rejected: %v", err)
	}
	relA.Release(0)
	relB.Release(0)
}

// TestAdmissionRetryAfter: congestion backs off from the tenant's queue
// wait, quota exhaustion from a minute — each jittered deterministically
// into [base/2, base] per (tenant, rejection ordinal).
func TestAdmissionRetryAfter(t *testing.T) {
	inBounds := func(d, base time.Duration) bool { return base/2 <= d && d <= base }
	a := NewScheduler(map[string]TenantConfig{"*": {QueueWaitMS: 2500}}, SchedConfig{})
	if d := a.RetryAfter("t", ErrQueueFull); !inBounds(d, 2500*time.Millisecond) {
		t.Errorf("RetryAfter(queue full) = %v, want within [1.25s, 2.5s]", d)
	}
	if d := a.RetryAfter("t", ErrQuotaExhausted); !inBounds(d, time.Minute) {
		t.Errorf("RetryAfter(quota) = %v, want within [30s, 1m]", d)
	}

	// The sequence is a pure function of (tenant, ordinal): a second
	// controller replays it exactly, and distinct tenants de-correlate.
	b := NewScheduler(map[string]TenantConfig{"*": {QueueWaitMS: 2500}}, SchedConfig{})
	var seqA, seqB []time.Duration
	for i := 0; i < 8; i++ {
		seqA = append(seqA, a.RetryAfter("t", ErrQueueFull))
		seqB = append(seqB, b.RetryAfter("t", ErrQueueFull))
	}
	// a is two rejections ahead of b from the bounds checks above.
	for i := 0; i+2 < len(seqA); i++ {
		if seqA[i] != seqB[i+2] {
			t.Fatalf("jitter is not a pure function of (tenant, ordinal): %v vs %v", seqA[i], seqB[i+2])
		}
	}
	spread := map[time.Duration]bool{}
	for _, d := range seqB {
		spread[d] = true
	}
	if len(spread) < 4 {
		t.Errorf("8 rejections landed on only %d distinct backoffs: %v", len(spread), seqB)
	}

	// Pinning the RNG hook pins the jitter: rand64 ≡ 0 means no offset.
	c := NewScheduler(map[string]TenantConfig{"*": {QueueWaitMS: 2500}}, SchedConfig{})
	c.rand64 = func(uint64) uint64 { return 0 }
	if d := c.RetryAfter("t", ErrQueueFull); d != 2500*time.Millisecond {
		t.Errorf("RetryAfter with zero RNG = %v, want the full base 2.5s", d)
	}
	if d := c.RetryAfter("t", ErrQuotaExhausted); d != time.Minute {
		t.Errorf("RetryAfter(quota) with zero RNG = %v, want 1m", d)
	}
}

// waitFor polls a condition with a deadline; admission handoffs are
// asynchronous but fast.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
