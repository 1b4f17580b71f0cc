package server

import (
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

// BenchmarkServerScheduled drives the weighted-fair scheduler end to end:
// six concurrent clients split across a weight-3 bulk tenant and a
// deadlined interactive tenant contend for one worker slot under DRR with
// EDF cut-ahead. Per-run oracle-call counts do not depend on session
// cache warmth, so bc_calls — the summed spend of the six runs — is
// deterministic regardless of dispatch interleaving; ns_per_op carries
// the admission and dispatch overhead the scheduler adds to the serving
// path. A deadlined request may pause a running bulk one, and a paused
// run does the unpaused run's work, so bc_calls stays deterministic; the
// pause's re-grant wait lands in ns_per_op.
func BenchmarkServerScheduled(b *testing.B) {
	const clients = 6
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := New(Config{
			Tenants: map[string]TenantConfig{
				"*":    {MaxConcurrent: clients, QueueDepth: 32, QueueWaitMS: 60000},
				"bulk": {MaxConcurrent: clients, QueueDepth: 32, QueueWaitMS: 60000, Weight: 3},
				"slo":  {MaxConcurrent: clients, QueueDepth: 32, QueueWaitMS: 60000, DeadlineMS: 250},
			},
			Sched: SchedConfig{Slots: 1},
		})
		ts := httptest.NewServer(srv.Handler())
		var (
			mu    sync.Mutex
			calls int
		)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant, strat := "bulk", "greedy"
				if c%2 == 1 {
					tenant, strat = "slo", "marginal"
				}
				sf := []int{1, 10, 100}[c%3]
				body := fmt.Sprintf(
					`{"tenant":%q, "sf": %d, "strategy": %q, "spec": {"seed": 7, "queries": 8, "shape": "mixed", "fan_out": 4, "sharing": 0.5, "select_frac": 0.8, "agg_frac": 0.5}}`,
					tenant, sf, strat)
				n := benchPost(b, ts.URL, body)
				mu.Lock()
				calls += n
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		ts.Close()
		total += calls
	}
	b.ReportMetric(float64(total)/float64(b.N), "bc_calls")
}
