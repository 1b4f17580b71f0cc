package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// telemetrySum folds per-member telemetry shares into one aggregate over
// the apportioned numeric fields (CacheHitRate is a derived ratio and
// Stopped a copied tag; neither is additive).
func telemetrySum(shares []core.Telemetry) core.Telemetry {
	var s core.Telemetry
	for _, t := range shares {
		s.OracleCalls += t.OracleCalls
		s.BCCalls += t.BCCalls
		s.CacheHits += t.CacheHits
		s.SharedHits += t.SharedHits
		s.ComputedKeys += t.ComputedKeys
		s.Rounds += t.Rounds
		s.Pruned += t.Pruned
		s.Stale += t.Stale
		s.Reused += t.Reused
		s.SetupTime += t.SetupTime
		s.SearchTime += t.SearchTime
		s.FinalizeTime += t.FinalizeTime
		s.TotalTime += t.TotalTime
	}
	return s
}

// expectConserved fails the test when the summed shares do not reproduce
// the run total exactly, field by field.
func expectConserved(t *testing.T, what string, total core.Telemetry, shares []core.Telemetry) {
	t.Helper()
	s := telemetrySum(shares)
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"oracle_calls", int64(s.OracleCalls), int64(total.OracleCalls)},
		{"bc_calls", int64(s.BCCalls), int64(total.BCCalls)},
		{"cache_hits", int64(s.CacheHits), int64(total.CacheHits)},
		{"shared_hits", int64(s.SharedHits), int64(total.SharedHits)},
		{"computed_keys", int64(s.ComputedKeys), int64(total.ComputedKeys)},
		{"rounds", int64(s.Rounds), int64(total.Rounds)},
		{"pruned", int64(s.Pruned), int64(total.Pruned)},
		{"stale", int64(s.Stale), int64(total.Stale)},
		{"reused", int64(s.Reused), int64(total.Reused)},
		{"setup_ns", int64(s.SetupTime), int64(total.SetupTime)},
		{"search_ns", int64(s.SearchTime), int64(total.SearchTime)},
		{"finalize_ns", int64(s.FinalizeTime), int64(total.FinalizeTime)},
		{"total_ns", int64(s.TotalTime), int64(total.TotalTime)},
	} {
		if p.got != p.want {
			t.Errorf("%s: share sum %s = %d, run total %d", what, p.name, p.got, p.want)
		}
	}
}

// TestBatchRaceStress hammers a batching server with K tenants × M
// workers over a mix of coalescible and distinct bodies, real deadline
// flushes, mid-batch client disconnects and one injected oracle panic,
// then audits exact conservation at every layer: each shared run's
// telemetry equals the sum of the per-member shares it was split into
// (successful AND faulted runs), the pooled sessions' aggregate equals
// the sum of the successful run totals, and the tenants' quota charges
// account for every oracle call any run burned. Run it under -race; it
// is the concurrency audit of the batching path.
func TestBatchRaceStress(t *testing.T) {
	const (
		tenants   = 3
		workers   = 4 // concurrent workers per tenant
		perWorker = 3
	)
	srv := New(Config{
		// Slots below the worker count so the admission queue (and its
		// FIFO handoff) is exercised while lanes fill; the real 25ms
		// deadline timer bounds every lane wait, so slot-holding members
		// can never deadlock the lane against admission.
		Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 3, QueueDepth: 16, QueueWaitMS: 30000}},
		Batch:   BatchConfig{Enabled: true, MaxRequests: 4, MaxDelayMS: 25},
	})

	// Server-side conservation hooks: every shared run — completed or
	// faulted — must split into shares that reproduce it exactly.
	var (
		hookMu        sync.Mutex
		successTotals core.Telemetry
		faultTotals   core.Telemetry
		successRuns   int
		faultRuns     int
	)
	srv.onLaneComplete = func(total core.Telemetry, shares []core.Telemetry) {
		expectConserved(t, "completed run", total, shares)
		hookMu.Lock()
		successTotals = telemetrySum([]core.Telemetry{successTotals, total})
		successRuns++
		hookMu.Unlock()
	}
	srv.onLaneFault = func(total core.Telemetry, shares []core.Telemetry) {
		expectConserved(t, "faulted run", total, shares)
		hookMu.Lock()
		faultTotals = telemetrySum([]core.Telemetry{faultTotals, total})
		faultRuns++
		hookMu.Unlock()
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One injected panic on the 40th oracle evaluation: it lands inside
	// whichever shared run happens to be holding the oracle then, which
	// must answer every member 500 with one incident and charge each its
	// exact share of the burned work.
	withSchedule(t, faultinject.NewSchedule(5,
		faultinject.Rule{Point: faultinject.OracleEval, N: 40, Panic: true}))

	// Two bodies per strategy lane: same-seed requests coalesce to one
	// group, different seeds batch as distinct groups in the same lane.
	bodies := []string{
		`{"spec": {"seed": 11, "queries": 6, "shape": "mixed", "fan_out": 4, "sharing": 0.6, "select_frac": 0.8, "agg_frac": 0.5}, "strategy": "greedy"}`,
		`{"spec": {"seed": 12, "queries": 6, "shape": "mixed", "fan_out": 4, "sharing": 0.6, "select_frac": 0.8, "agg_frac": 0.5}, "strategy": "greedy"}`,
	}

	type tally struct {
		ok, okMulti, rejected, faulted, disconnected int
	}
	var (
		mu           sync.Mutex
		sum          tally
		discByTenant = make(map[string]int64)
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				var local tally
				for i := 0; i < perWorker; i++ {
					body := bodies[(wi+i)%len(bodies)]
					ctx := context.Background()
					var cancel context.CancelFunc = func() {}
					// Every fourth request disconnects mid-flight: if the
					// lane has not flushed yet the member is excised, if
					// the run already started it is still served and
					// charged — both must conserve.
					if (wi*perWorker+i)%4 == 3 {
						ctx, cancel = context.WithTimeout(ctx, 10*time.Millisecond)
					}
					req, err := http.NewRequestWithContext(ctx, http.MethodPost,
						ts.URL+"/v1/optimize", strings.NewReader(body))
					if err != nil {
						cancel()
						t.Error(err)
						return
					}
					req.Header.Set("X-Tenant", tenant)
					resp, err := http.DefaultClient.Do(req)
					cancel()
					if err != nil {
						local.disconnected++
						continue
					}
					switch resp.StatusCode {
					case http.StatusOK:
						var or OptimizeResponse
						if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
							t.Errorf("decoding 200 body: %v", err)
							resp.Body.Close()
							return
						}
						if !or.Batched || or.BatchSize < 1 {
							t.Errorf("200 response not batch-attributed: batched=%v size=%d", or.Batched, or.BatchSize)
						}
						local.ok++
						if or.BatchSize > 1 {
							local.okMulti++
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						local.rejected++
					case http.StatusInternalServerError:
						var eb errorBody
						if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
							t.Errorf("decoding 500 body: %v", err)
						} else if eb.Code != codeInternalPanic || eb.Incident == "" {
							t.Errorf("500 body = %+v, want code %q with incident", eb, codeInternalPanic)
						}
						local.faulted++
					default:
						t.Errorf("unexpected status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
				mu.Lock()
				sum.ok += local.ok
				sum.okMulti += local.okMulti
				sum.rejected += local.rejected
				sum.faulted += local.faulted
				sum.disconnected += local.disconnected
				discByTenant[tenant] += int64(local.disconnected)
				mu.Unlock()
			}(wi)
		}
	}
	wg.Wait()

	// A disconnected client's Do returns at its 10ms deadline while the
	// handler — and the shared run still serving the other members — drains
	// on its own schedule. Wait for the admission ledger to quiesce before
	// auditing it, or the reads below race the last releases.
	waitFor(t, func() bool {
		for _, a := range srv.Admission().Stats() {
			if a.Active != 0 || a.Queued != 0 || a.Admitted != a.Completed {
				return false
			}
		}
		return true
	})

	total := tenants * workers * perWorker
	if got := sum.ok + sum.rejected + sum.faulted + sum.disconnected; got != total {
		t.Fatalf("accounted %d responses (%+v), sent %d", got, sum, total)
	}
	if sum.ok == 0 {
		t.Fatal("no request succeeded; stress parameters are wrong")
	}
	if faultRuns != 1 {
		t.Errorf("observed %d faulted shared runs, the schedule fires exactly once", faultRuns)
	}
	if sum.faulted == 0 {
		t.Errorf("no client observed the injected fault (faulted run had %d members?)", faultRuns)
	}
	t.Logf("stress: %d ok (%d in multi-member batches), %d rejected, %d faulted, %d disconnected; %d runs (+%d faulted)",
		sum.ok, sum.okMulti, sum.rejected, sum.faulted, sum.disconnected,
		successRuns, faultRuns)

	// Session-layer conservation: the pooled sessions' aggregate (live
	// plus the quarantined one) must equal the sum of the successful run
	// totals — a faulted run contributes only to Faults, per the session
	// contract.
	st := sumStats(t, srv)
	if st.Faults != faultRuns {
		t.Errorf("session faults = %d, observed %d faulted runs", st.Faults, faultRuns)
	}
	if st.OracleCalls != successTotals.OracleCalls {
		t.Errorf("session oracle calls = %d, run-total sum = %d", st.OracleCalls, successTotals.OracleCalls)
	}
	if st.BCCalls != successTotals.BCCalls {
		t.Errorf("session bc calls = %d, run-total sum = %d", st.BCCalls, successTotals.BCCalls)
	}
	if st.CacheHits != successTotals.CacheHits {
		t.Errorf("session cache hits = %d, run-total sum = %d", st.CacheHits, successTotals.CacheHits)
	}
	if st.SharedHits != successTotals.SharedHits {
		t.Errorf("session shared hits = %d, run-total sum = %d", st.SharedHits, successTotals.SharedHits)
	}
	if st.Rounds != successTotals.Rounds {
		t.Errorf("session rounds = %d, run-total sum = %d", st.Rounds, successTotals.Rounds)
	}

	// Quota conservation: every oracle call any run burned — completed or
	// faulted — was charged to exactly one tenant, and nothing else was.
	adm := srv.Admission().Stats()
	var spent int64
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("tenant-%d", ti)
		a := adm[name]
		spent += a.QuotaSpent
		if a.Active != 0 || a.Queued != 0 {
			t.Errorf("%s: %d active, %d queued after drain", name, a.Active, a.Queued)
		}
		if a.Admitted != a.Completed {
			t.Errorf("%s: admitted %d != completed %d", name, a.Admitted, a.Completed)
		}
		// A request whose client disconnected before the handler reached
		// admission never touches the ledger, so disconnects widen the
		// accounting into an interval: every request that got an HTTP
		// response is accounted exactly once, and nothing is double-counted.
		sent := int64(workers * perWorker)
		disc := discByTenant[name]
		if got := a.Admitted + a.RejectedQueueFull + a.QueueTimeouts + a.Cancelled; got > sent || got < sent-disc {
			t.Errorf("%s: admitted+rejected+cancelled = %d, want within [%d, %d] (%+v)", name, got, sent-disc, sent, a)
		}
	}
	if want := int64(successTotals.OracleCalls + faultTotals.OracleCalls); spent != want {
		t.Errorf("Σ tenant quota spent = %d, Σ run oracle calls = %d (success %d + fault %d)",
			spent, want, successTotals.OracleCalls, faultTotals.OracleCalls)
	}
}
