package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// neverFire installs a queue-wait clock that never expires, so a test's
// waiters sit in the queue until a release hands them a slot (or their
// context is cancelled) — queue timing is out of the picture entirely.
func neverFire(a *Admission) {
	a.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
		return nil, func() bool { return false }
	}
}

// TestAdmissionMultiReleaseHandoff is the queue-head handoff regression
// test: with every slot held and W waiters queued, releasing all M slots
// concurrently must hand exactly M queue heads their slots — and as those
// admitted waiters release in turn, the whole queue must drain. No waiter
// may be stranded (admitted twice, skipped, or left pending after a free
// slot existed), and the counters must conserve: every Acquire is
// admitted exactly once and every admission is completed.
func TestAdmissionMultiReleaseHandoff(t *testing.T) {
	const (
		slots   = 4 // M concurrent releases
		waiters = 9 // queued behind them, > 2×slots so the drain cascades
	)
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: slots, QueueDepth: waiters, QueueWaitMS: 60000}}, SchedConfig{})
	neverFire(a)

	// Fill every slot.
	releases := make([]*Grant, slots)
	for i := range releases {
		rel, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
		if err != nil {
			t.Fatalf("filling slot %d: %v", i, err)
		}
		releases[i] = rel
	}

	// Queue W waiters; each releases immediately on admission, so the
	// queue can only drain through repeated head handoffs.
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
			if err != nil {
				errs <- err
				return
			}
			rel.Release(0)
		}()
	}
	waitForQueued(t, a, "t", waiters)

	// The M-way moment: all slot holders release at once.
	for _, rel := range releases {
		wg.Add(1)
		go func(rel *Grant) {
			defer wg.Done()
			rel.Release(0)
		}(rel)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s := a.Stats()["t"]
		t.Fatalf("queue did not drain: waiters stranded (%+v)", s)
	}
	close(errs)
	for err := range errs {
		t.Errorf("queued Acquire rejected: %v", err)
	}

	s := a.Stats()["t"]
	if s.Active != 0 || s.Queued != 0 {
		t.Errorf("after drain: %d active, %d queued", s.Active, s.Queued)
	}
	if want := int64(slots + waiters); s.Admitted != want || s.Completed != want {
		t.Errorf("admitted %d, completed %d, want both %d", s.Admitted, s.Completed, want)
	}
}

// TestAdmissionQueueTimeoutDeterministic drives the queue-wait deadline
// through the clock hook instead of real time: a queued waiter whose
// timer fires is rejected with ErrQueueTimeout and removed from the
// queue, so the later release finds nobody to hand its slot to and the
// slot simply frees.
func TestAdmissionQueueTimeoutDeterministic(t *testing.T) {
	a := NewScheduler(map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 60000}}, SchedConfig{})
	var (
		mu     sync.Mutex
		timers []chan time.Time
	)
	a.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
		ch := make(chan time.Time, 1)
		mu.Lock()
		timers = append(timers, ch)
		mu.Unlock()
		return ch, func() bool { return true }
	}

	rel, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("filling the slot: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
		got <- err
	}()
	waitForQueued(t, a, "t", 1)

	// Fire the waiter's clock: the only timer armed is its queue wait.
	mu.Lock()
	if len(timers) != 1 {
		mu.Unlock()
		t.Fatalf("%d timers armed, want 1 (the waiter's)", len(timers))
	}
	timers[0] <- time.Time{}
	mu.Unlock()

	select {
	case err := <-got:
		if !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("timed-out waiter got %v, want ErrQueueTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not observe its fired timer")
	}
	s := a.Stats()["t"]
	if s.QueueTimeouts != 1 || s.Queued != 0 {
		t.Fatalf("after timeout: %+v, want 1 queue timeout and an empty queue", s)
	}

	// The release must not hand the slot to the departed waiter: the next
	// Acquire takes it directly.
	rel.Release(0)
	rel2, err := a.AcquireGrant(context.Background(), AdmitRequest{Tenant: "t"})
	if err != nil {
		t.Fatalf("post-timeout Acquire: %v", err)
	}
	rel2.Release(0)
	s = a.Stats()["t"]
	if s.Active != 0 || s.Admitted != 2 || s.Completed != 2 {
		t.Fatalf("final stats %+v, want 2 admitted/completed, 0 active", s)
	}
}

// waitForQueued polls until the tenant's queue length reaches n — the
// only nondeterminism these tests tolerate is waiting for goroutines to
// park, never for timing-dependent outcomes.
func waitForQueued(t *testing.T, a *Admission, tenant string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if a.Stats()[tenant].Queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (%+v)", n, a.Stats()[tenant])
		}
		time.Sleep(time.Millisecond)
	}
}
