package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
)

// pairSQL is a cheap two-query sharing pair for load-shaped tests.
const pairSQL = `{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < 1200; SELECT l.tax FROM lineitem l WHERE l.shipdate < 1300"}`

// specBody marshals a testSpec request plus extras. Every bestCost call a
// run makes passes the OracleEval injection point — hit 1 is bc(∅), the last
// prices the chosen set — and the spec batch has enough shareable nodes that
// most of its hits are candidate sets of the greedy rounds.
func specBody(t *testing.T, extra map[string]any) string {
	t.Helper()
	m := map[string]any{"spec": testSpec()}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withSchedule installs a fault schedule and returns an idempotent
// restore, also registered as test cleanup so a mid-test Fatal never
// leaks the schedule into the next test.
func withSchedule(t *testing.T, s *faultinject.Schedule) (restore func()) {
	t.Helper()
	r := faultinject.Enable(s)
	var once sync.Once
	restore = func() { once.Do(r) }
	t.Cleanup(restore)
	return restore
}

// sumStats folds the pool's live and retired session stats into one
// aggregate — the full serving history across quarantine and eviction.
func sumStats(t *testing.T, srv *Server) repro.SessionStats {
	t.Helper()
	total, _ := srv.pool.retiredStats()
	for _, p := range srv.pool.stats() {
		total.Add(p.Session)
	}
	return total
}

// TestChaosPanicIsolatedQuarantinesSession: an injected oracle panic must
// surface as a 500 with a stable code and an incident id — never kill the
// process — and the faulted session must leave the pool so the next
// request runs on a freshly built one.
func TestChaosPanicIsolatedQuarantinesSession(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the pool so the quarantine is observable as a session swap.
	body := specBody(t, nil)
	if resp, data := postOptimize(t, ts.URL, body, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup = %d: %s", resp.StatusCode, data)
	}

	restore := withSchedule(t, faultinject.NewSchedule(3,
		faultinject.Rule{Point: faultinject.OracleEval, N: 1, Panic: true}))
	resp, data := postOptimize(t, ts.URL, body, nil)
	restore()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted request = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatalf("500 body not JSON: %s", data)
	}
	if eb.Code != codeInternalPanic || eb.Incident == "" {
		t.Errorf("500 body = %+v, want code %s and an incident id", eb, codeInternalPanic)
	}
	if !strings.Contains(eb.Error, eb.Incident) {
		t.Errorf("error text %q does not carry the incident id %q", eb.Error, eb.Incident)
	}
	if got := srv.PanicsRecovered(); got != 1 {
		t.Errorf("panics recovered = %d, want 1", got)
	}

	// The poisoned session leaves the pool at once; its history lands in
	// the retired aggregate when its last pin releases.
	if ps := srv.pool.stats(); len(ps) != 0 {
		t.Fatalf("pool still holds %d sessions after quarantine: %+v", len(ps), ps)
	}
	waitFor(t, func() bool { _, n := srv.pool.retiredStats(); return n == 1 })
	retired, _ := srv.pool.retiredStats()
	if retired.Faults != 1 || retired.Batches != 1 {
		t.Errorf("retired = %+v, want 1 fault + 1 batch", retired)
	}

	// Service continues on a rebuilt session.
	resp, data2 := postOptimize(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-quarantine request = %d: %s", resp.StatusCode, data2)
	}

	// /v1/stats reports the recovered panic and the retired aggregate.
	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.PanicsRecovered != 1 || stats.RetiredCount != 1 || stats.Retired.Faults != 1 {
		t.Errorf("stats = panics %d retired %d faults %d, want 1/1/1",
			stats.PanicsRecovered, stats.RetiredCount, stats.Retired.Faults)
	}
}

// TestChaosFaultFreeReplayBitIdentical: enabling and disabling a fault
// schedule leaves no residue — the same request replayed fault-free is
// bit-identical to its pre-fault run, costs and counters included.
func TestChaosFaultFreeReplayBitIdentical(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"spec": testSpec()})
	resp, before := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, before)
	}
	ref := decodeResponse(t, before)

	restore := withSchedule(t, faultinject.NewSchedule(11,
		faultinject.Rule{Point: faultinject.OracleEval, N: 5, Panic: true}))
	if resp, data := postOptimize(t, ts.URL, string(body), nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted run = %d: %s", resp.StatusCode, data)
	}
	restore()

	resp, after := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay = %d: %s", resp.StatusCode, after)
	}
	got := decodeResponse(t, after)
	if got.CostMS != ref.CostMS || got.BenefitMS != ref.BenefitMS {
		t.Errorf("replay costs (%v, %v) != reference (%v, %v)", got.CostMS, got.BenefitMS, ref.CostMS, ref.BenefitMS)
	}
	if len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("replay set %v != %v", got.Materialized, ref.Materialized)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("replay set %v != %v", got.Materialized, ref.Materialized)
		}
	}
	if got.Telemetry.OracleCalls != ref.Telemetry.OracleCalls || got.Telemetry.Rounds != ref.Telemetry.Rounds {
		t.Errorf("replay telemetry (%d calls, %d rounds) != reference (%d, %d)",
			got.Telemetry.OracleCalls, got.Telemetry.Rounds, ref.Telemetry.OracleCalls, ref.Telemetry.Rounds)
	}
}

// TestChaosResumeOverHTTP: a call-budget-stopped response carries a
// checkpoint token; POSTing it back as "resume" — even to a different
// server instance — completes to the uninterrupted result, and a resume
// against the wrong search space is a 409 with a stable code.
func TestChaosResumeOverHTTP(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	full, _ := json.Marshal(map[string]any{"spec": spec})
	resp, data := postOptimize(t, ts.URL, string(full), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, data)
	}
	ref := decodeResponse(t, data)

	budgeted, _ := json.Marshal(map[string]any{"spec": spec, "oracle_call_budget": ref.Telemetry.OracleCalls / 2})
	resp, data = postOptimize(t, ts.URL, string(budgeted), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted = %d: %s", resp.StatusCode, data)
	}
	stopped := decodeResponse(t, data)
	if stopped.Telemetry.Stopped.String() != "call-budget" || stopped.Checkpoint == nil {
		t.Fatalf("budgeted run stopped=%v checkpoint=%v, want a resumable call-budget stop",
			stopped.Telemetry.Stopped, stopped.Checkpoint != nil)
	}

	// Resume on a second server: checkpoints are portable state, not
	// handles into one process.
	srv2 := New(Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resume, _ := json.Marshal(map[string]any{"spec": spec, "resume": stopped.Checkpoint})
	resp, data = postOptimize(t, ts2.URL, string(resume), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume = %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)
	if got.CostMS != ref.CostMS || len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("resumed cost %v set %v != reference %v %v", got.CostMS, got.Materialized, ref.CostMS, ref.Materialized)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("resumed set %v != %v", got.Materialized, ref.Materialized)
		}
	}
	if got.Checkpoint != nil || got.Telemetry.Stopped.String() != "none" {
		t.Errorf("unbudgeted resume did not finish: stopped=%v", got.Telemetry.Stopped)
	}
	if got.Strategy != ref.Strategy {
		t.Errorf("resume reported strategy %q, checkpoint algorithm is %q", got.Strategy, ref.Strategy)
	}

	// The same checkpoint against a different search space: 409.
	mismatch, _ := json.Marshal(map[string]any{"sql": "SELECT l.tax FROM lineitem l", "resume": stopped.Checkpoint})
	resp, data = postOptimize(t, ts2.URL, string(mismatch), nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched resume = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeResumeMismatch {
		t.Errorf("mismatch body = %s, want code %s", data, codeResumeMismatch)
	}
}

// TestChaosBreakerLifecycle drives one catalog through the full breaker
// arc: repeated faults degrade it (clamped budgets, LazyGreedy fallback,
// degraded:true), continued faults open it (503 + Retry-After), the
// cooldown admits a probe, and consecutive successes close it again.
func TestChaosBreakerLifecycle(t *testing.T) {
	srv := New(Config{Breaker: BreakerConfig{
		Threshold:  2,
		CooldownMS: 50,
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Every oracle eval panics while this schedule is installed.
	restore := withSchedule(t, faultinject.NewSchedule(1,
		faultinject.Rule{Point: faultinject.OracleEval, Panic: true}))
	for i := 0; i < 2; i++ { // closed → degraded
		if resp, data := postOptimize(t, ts.URL, specBody(t, nil), nil); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("fault %d = %d: %s", i, resp.StatusCode, data)
		}
	}
	restore()

	// Degraded serving: still 200, but flagged and on the fallback.
	resp, data := postOptimize(t, ts.URL, specBody(t, map[string]any{"strategy": "marginal"}), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request = %d: %s", resp.StatusCode, data)
	}
	deg := decodeResponse(t, data)
	if !deg.Degraded || deg.Strategy != "LazyGreedy" {
		t.Fatalf("degraded response = degraded:%v strategy:%s, want true/LazyGreedy", deg.Degraded, deg.Strategy)
	}

	// Two more faults while degraded: open.
	restore = withSchedule(t, faultinject.NewSchedule(2,
		faultinject.Rule{Point: faultinject.OracleEval, Panic: true}))
	for i := 0; i < 2; i++ {
		if resp, data := postOptimize(t, ts.URL, specBody(t, nil), nil); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("degraded fault %d = %d: %s", i, resp.StatusCode, data)
		}
	}
	restore()

	resp, data = postOptimize(t, ts.URL, specBody(t, nil), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker = %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("open rejection without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeBreakerOpen {
		t.Errorf("open body = %s, want code %s", data, codeBreakerOpen)
	}

	// /healthz reports the open catalog while still serving 200.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health healthzResponse
	if err := json.NewDecoder(hz.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Errorf("healthz = %d %q, want 200 degraded", hz.StatusCode, health.Status)
	}
	if b, ok := health.Breakers["sf=1"]; !ok || b.State != "open" {
		t.Errorf("healthz breakers = %+v, want sf=1 open", health.Breakers)
	}

	// After the cooldown the probe is admitted (degraded) and succeeds;
	// one more success closes the breaker.
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, data = postOptimize(t, ts.URL, specBody(t, nil), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recovery request %d = %d: %s", i, resp.StatusCode, data)
		}
		if got := decodeResponse(t, data); !got.Degraded {
			t.Fatalf("recovery request %d not flagged degraded", i)
		}
	}
	resp, data = postOptimize(t, ts.URL, specBody(t, nil), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered request = %d: %s", resp.StatusCode, data)
	}
	if got := decodeResponse(t, data); got.Degraded {
		t.Error("breaker did not close after the recovery threshold")
	}
	if snap := srv.breaker.snapshot(); len(snap) != 0 {
		t.Errorf("closed breaker still tracked: %+v", snap)
	}
}

// TestChaosCacheInvalidationMidRun: flushing the session's shared cost
// cache between greedy rounds (an operator action racing a request) must
// not change the result — cached costs are pure, so the run just re-pays
// them.
func TestChaosCacheInvalidationMidRun(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"spec": testSpec()})
	resp, data := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, data)
	}
	ref := decodeResponse(t, data)

	sess, release, err := srv.pool.acquire(poolKey{sf: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	restore := withSchedule(t, faultinject.NewSchedule(5,
		faultinject.Rule{Point: faultinject.Round, N: 2, Fn: func() { sess.InvalidateCache() }}))
	resp, data = postOptimize(t, ts.URL, string(body), nil)
	restore()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidated run = %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)
	if got.CostMS != ref.CostMS || len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("mid-run invalidation changed the result: %v (%v) != %v (%v)",
			got.Materialized, got.CostMS, ref.Materialized, ref.CostMS)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("mid-run invalidation changed the set: %v != %v", got.Materialized, ref.Materialized)
		}
	}
}

// TestChaosTelemetryConservationUnderFaults mixes faulting and healthy
// requests across concurrent workers and audits the books afterwards:
// every accepted response's telemetry is counted exactly once, faulted
// runs contribute exactly their fault count, sessions lost to quarantine
// keep their history in the retired aggregate, and every admission slot
// and quota charge is released. Run under -race.
func TestChaosTelemetryConservationUnderFaults(t *testing.T) {
	const workers = 4
	const perWorker = 6
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 2, QueueDepth: 8, QueueWaitMS: 30000},
		// Keep the breaker out of the way: this test audits accounting,
		// not degradation.
		Breaker: BreakerConfig{Disabled: true},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Panics at fixed points in the global oracle-eval sequence, across
	// all requests: some fault, most succeed, interleaving is
	// scheduler-chosen.
	withSchedule(t, faultinject.NewSchedule(23,
		faultinject.Rule{Point: faultinject.OracleEval, N: 7, Panic: true},
		faultinject.Rule{Point: faultinject.OracleEval, N: 29, Panic: true},
		faultinject.Rule{Point: faultinject.OracleEval, N: 53, Panic: true},
	))

	chaosBody := specBody(t, nil)

	type tally struct {
		ok, faulted, rejected int
		oracleCalls, bcCalls  int
		cacheHits, sharedHits int
		rounds, interrupted   int
	}
	var (
		mu  sync.Mutex
		sum tally
	)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			var local tally
			for i := 0; i < perWorker; i++ {
				req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", strings.NewReader(chaosBody))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("X-Tenant", fmt.Sprintf("chaos-%d", wi%2))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var or OptimizeResponse
					if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
						t.Errorf("decoding 200 body: %v", err)
						resp.Body.Close()
						return
					}
					local.ok++
					local.oracleCalls += or.Telemetry.OracleCalls
					local.bcCalls += or.Telemetry.BCCalls
					local.cacheHits += or.Telemetry.CacheHits
					local.sharedHits += or.Telemetry.SharedHits
					local.rounds += or.Telemetry.Rounds
					if or.Telemetry.Stopped.String() != "none" {
						local.interrupted++
					}
				case http.StatusInternalServerError:
					var eb errorBody
					if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Code != codeInternalPanic {
						t.Errorf("500 without internal_panic code: %+v", eb)
					}
					local.faulted++
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					local.rejected++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
			mu.Lock()
			sum.ok += local.ok
			sum.faulted += local.faulted
			sum.rejected += local.rejected
			sum.oracleCalls += local.oracleCalls
			sum.bcCalls += local.bcCalls
			sum.cacheHits += local.cacheHits
			sum.sharedHits += local.sharedHits
			sum.rounds += local.rounds
			sum.interrupted += local.interrupted
			mu.Unlock()
		}(wi)
	}
	wg.Wait()

	if got := sum.ok + sum.faulted + sum.rejected; got != workers*perWorker {
		t.Fatalf("accounted %d responses, sent %d", got, workers*perWorker)
	}
	if sum.ok == 0 {
		t.Fatal("every request faulted or was rejected; the schedule is too hot")
	}
	if sum.faulted == 0 {
		t.Fatal("no request faulted; the schedule never fired")
	}
	t.Logf("chaos: %d ok, %d faulted, %d rejected", sum.ok, sum.faulted, sum.rejected)

	// Conservation across live + retired sessions: 200-response telemetry
	// sums field by field; faulted runs appear only in Faults.
	total := sumStats(t, srv)
	if total.Batches != sum.ok {
		t.Errorf("batches = %d, accepted responses = %d", total.Batches, sum.ok)
	}
	if total.Faults != sum.faulted {
		t.Errorf("faults = %d, faulted responses = %d", total.Faults, sum.faulted)
	}
	if total.OracleCalls != sum.oracleCalls {
		t.Errorf("oracle calls = %d, response sum = %d", total.OracleCalls, sum.oracleCalls)
	}
	if total.BCCalls != sum.bcCalls {
		t.Errorf("bc calls = %d, response sum = %d", total.BCCalls, sum.bcCalls)
	}
	if total.CacheHits != sum.cacheHits {
		t.Errorf("cache hits = %d, response sum = %d", total.CacheHits, sum.cacheHits)
	}
	if total.SharedHits != sum.sharedHits {
		t.Errorf("shared hits = %d, response sum = %d", total.SharedHits, sum.sharedHits)
	}
	if total.Rounds != sum.rounds {
		t.Errorf("rounds = %d, response sum = %d", total.Rounds, sum.rounds)
	}
	if total.Interrupted != sum.interrupted {
		t.Errorf("interrupted = %d, response sum = %d", total.Interrupted, sum.interrupted)
	}
	if got := int(srv.PanicsRecovered()); got != sum.faulted {
		t.Errorf("panics recovered = %d, faulted responses = %d", got, sum.faulted)
	}

	// Admission books balance: every slot released, admitted = completed.
	for name, a := range srv.Admission().Stats() {
		if a.Active != 0 || a.Queued != 0 {
			t.Errorf("%s: %d active, %d queued after drain", name, a.Active, a.Queued)
		}
		if a.Admitted != a.Completed {
			t.Errorf("%s: admitted %d != completed %d", name, a.Admitted, a.Completed)
		}
	}
}

// TestChaosPoolEvictionUnderLoad: with a one-session pool and two hot
// catalogs, requests keep forcing evictions of possibly-pinned sessions.
// Refcount pinning must keep every in-flight run intact (all 200s) while
// retirement keeps the stats books balanced. Run under -race.
func TestChaosPoolEvictionUnderLoad(t *testing.T) {
	const workers = 4
	const perWorker = 5
	srv := New(Config{
		PoolSize:      1,
		DefaultTenant: TenantConfig{MaxConcurrent: workers, QueueDepth: 16, QueueWaitMS: 30000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var (
		mu         sync.Mutex
		ok, failed int
	)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := pairSQL
				if (wi+i)%2 == 1 {
					body = `{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < 1200; SELECT l.tax FROM lineitem l WHERE l.shipdate < 1300", "sf": 100}`
				}
				resp, data := postOptimize(t, ts.URL, body, nil)
				mu.Lock()
				if resp.StatusCode == http.StatusOK {
					ok++
				} else {
					failed++
					t.Errorf("request = %d: %s", resp.StatusCode, data)
				}
				mu.Unlock()
			}
		}(wi)
	}
	wg.Wait()

	if failed != 0 || ok != workers*perWorker {
		t.Fatalf("%d ok, %d failed", ok, failed)
	}
	if ps := srv.pool.stats(); len(ps) > 1 {
		t.Errorf("pool exceeded its bound: %d entries", len(ps))
	}
	_, retiredCount := srv.pool.retiredStats()
	if retiredCount == 0 {
		t.Error("no session was evicted; the test exercised nothing")
	}
	// Every batch is accounted exactly once across live + retired.
	if total := sumStats(t, srv); total.Batches != workers*perWorker {
		t.Errorf("batches = %d, want %d", total.Batches, workers*perWorker)
	}
	for name, a := range srv.Admission().Stats() {
		if a.Active != 0 || a.Queued != 0 {
			t.Errorf("%s: %d active, %d queued after drain", name, a.Active, a.Queued)
		}
	}
}

// TestFaultDrainDuringPanickingRun: draining while a request is mid-fault
// must let the fault resolve normally (500 + incident, slot released)
// while new work is turned away with the draining code.
func TestFaultDrainDuringPanickingRun(t *testing.T) {
	srv, started, gate := blockingServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	withSchedule(t, faultinject.NewSchedule(9,
		faultinject.Rule{Point: faultinject.OracleEval, Panic: true}))

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	body := specBody(t, nil)
	go func() {
		resp, data := postOptimize(t, ts.URL, body, nil)
		inflight <- result{resp.StatusCode, data}
	}()
	<-started

	srv.Drain()
	resp, data := postOptimize(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining request = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeDraining {
		t.Errorf("draining body = %s, want code %s", data, codeDraining)
	}

	close(gate) // the held request proceeds into its panic
	r := <-inflight
	if r.status != http.StatusInternalServerError {
		t.Fatalf("panicking in-flight request during drain = %d: %s", r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &eb); err != nil || eb.Code != codeInternalPanic {
		t.Errorf("in-flight fault body = %s, want code %s", r.body, codeInternalPanic)
	}
	waitFor(t, func() bool { return srv.Admission().Stats()["default"].Active == 0 })
}

// TestFaultDrainWithResumableCheckpoint: a drain between a budget stop
// and its resume rejects the resume with the draining code, and the
// checkpoint stays valid for whatever server replaces the drained one.
func TestFaultDrainWithResumableCheckpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	full, _ := json.Marshal(map[string]any{"spec": spec})
	resp, data := postOptimize(t, ts.URL, string(full), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, data)
	}
	ref := decodeResponse(t, data)

	budgeted, _ := json.Marshal(map[string]any{"spec": spec, "oracle_call_budget": ref.Telemetry.OracleCalls / 2})
	resp, data = postOptimize(t, ts.URL, string(budgeted), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted = %d: %s", resp.StatusCode, data)
	}
	stopped := decodeResponse(t, data)
	if stopped.Checkpoint == nil {
		t.Fatal("budgeted run carried no checkpoint")
	}

	srv.Drain()
	resume, _ := json.Marshal(map[string]any{"spec": spec, "resume": stopped.Checkpoint})
	resp, data = postOptimize(t, ts.URL, string(resume), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("resume during drain = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeDraining {
		t.Errorf("drain body = %s, want code %s", data, codeDraining)
	}

	// The replacement server picks the work up where it stopped.
	srv2 := New(Config{})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp, data = postOptimize(t, ts2.URL, string(resume), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume on replacement = %d: %s", resp.StatusCode, data)
	}
	if got := decodeResponse(t, data); got.CostMS != ref.CostMS {
		t.Errorf("resumed cost %v != reference %v", got.CostMS, ref.CostMS)
	}
}
