package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/parser"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// testSpec is the small deterministic batch the e2e tests optimize.
func testSpec() workload.Spec {
	return workload.Spec{
		Seed:       7,
		Queries:    8,
		Shape:      workload.Mixed,
		FanOut:     4,
		Sharing:    0.5,
		SelectFrac: 0.8,
		AggFrac:    0.5,
	}
}

func postOptimize(t *testing.T, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeResponse(t *testing.T, data []byte) *OptimizeResponse {
	t.Helper()
	var out OptimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding response: %v\n%s", err, data)
	}
	return &out
}

// TestServerOptimizeSpecBitIdentical pins the core serving contract: the
// HTTP round trip returns exactly what a direct Session.Optimize call
// returns for the same spec — same materialization set, bit-identical
// costs (float64s survive the JSON round trip unchanged), same
// deterministic telemetry counters.
func TestServerOptimizeSpecBitIdentical(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	body, err := json.Marshal(map[string]any{"spec": spec, "strategy": "marginal"})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)

	// The reference: a fresh direct session over the same catalog.
	sess, err := repro.NewSession(tpcd.Catalog(1), cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Optimize(context.Background(), workload.MustGenerate(spec),
		repro.WithStrategy(core.MarginalGreedy))
	if err != nil {
		t.Fatal(err)
	}

	if got.Queries != 8 || got.Strategy != "MarginalGreedy" {
		t.Errorf("queries/strategy = %d/%s", got.Queries, got.Strategy)
	}
	if len(got.Materialized) != len(want.Materialized) {
		t.Fatalf("materialized %v, want %v", got.Materialized, want.Materialized)
	}
	for i, g := range want.Materialized {
		if got.Materialized[i] != int(g) {
			t.Fatalf("materialized %v, want %v", got.Materialized, want.Materialized)
		}
	}
	if got.CostMS != want.Cost || got.VolcanoMS != want.VolcanoCost || got.BenefitMS != want.Benefit {
		t.Errorf("costs = (%v, %v, %v), want (%v, %v, %v)",
			got.CostMS, got.VolcanoMS, got.BenefitMS, want.Cost, want.VolcanoCost, want.Benefit)
	}
	if got.Plan.TotalMS != want.Plan.Total {
		t.Errorf("plan total = %v, want %v", got.Plan.TotalMS, want.Plan.Total)
	}
	if len(got.Plan.Steps) != len(want.Plan.Steps) || len(got.Plan.Queries) != len(want.Plan.Queries) {
		t.Errorf("plan shape = %d steps/%d queries, want %d/%d",
			len(got.Plan.Steps), len(got.Plan.Queries), len(want.Plan.Steps), len(want.Plan.Queries))
	}
	tl, wtl := got.Telemetry, want.Telemetry
	if tl.OracleCalls != wtl.OracleCalls || tl.Rounds != wtl.Rounds || tl.Pruned != wtl.Pruned ||
		tl.Stopped != wtl.Stopped {
		t.Errorf("telemetry = %+v, want counters of %+v", tl, wtl)
	}
	if tl.Stopped != repro.StopNone {
		t.Errorf("unbudgeted run stopped: %v", tl.Stopped)
	}
}

// TestServerOptimizeSQL serves a parsed-SQL payload and checks it matches
// the direct parse+optimize path; malformed SQL is a 400, never a crash.
func TestServerOptimizeSQL(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sql := `SELECT o.orderdate, SUM(l.extendedprice)
	        FROM orders o, lineitem l
	        WHERE o.orderkey = l.orderkey AND o.orderdate < 1100
	        GROUP BY o.orderdate;
	        SELECT o.orderdate, SUM(l.extendedprice)
	        FROM orders o, lineitem l
	        WHERE o.orderkey = l.orderkey AND o.orderdate < 1400
	        GROUP BY o.orderdate;`
	body, err := json.Marshal(map[string]any{"sql": sql, "strategy": "greedy", "plan_text": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)

	batch, err := parser.ParseBatch(sql)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := repro.NewSession(tpcd.Catalog(1), cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sess.Optimize(context.Background(), batch, repro.WithStrategy(core.Greedy))
	if err != nil {
		t.Fatal(err)
	}
	if got.Queries != 2 || got.CostMS != want.Cost || got.BenefitMS != want.Benefit {
		t.Errorf("sql round trip = %d queries cost %v benefit %v, want 2/%v/%v",
			got.Queries, got.CostMS, got.BenefitMS, want.Cost, want.Benefit)
	}
	if got.PlanText == "" || got.PlanText != want.Plan.String() {
		t.Errorf("plan_text does not match the direct plan rendering")
	}

	// Malformed SQL: 400 with an error body.
	resp, data = postOptimize(t, ts.URL, `{"sql": "SELEKT broken FROM"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed sql status = %d: %s", resp.StatusCode, data)
	}
	// Valid SQL naming an unknown table: also the client's fault.
	resp, data = postOptimize(t, ts.URL, `{"sql": "SELECT x.a FROM nosuchtable x"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown table status = %d: %s", resp.StatusCode, data)
	}
}

// TestRequestCost: a SQL payload is charged one DRR cost unit per non-blank
// statement — a terminating ";" (the usual form) or a run of them adds
// nothing — and a spec its query count.
func TestRequestCost(t *testing.T) {
	for _, tc := range []struct {
		sql  string
		want int
	}{
		{"a; b", 2},
		{"a; b;\n", 2},
		{"a;;;", 1},
		{"", 1},
	} {
		if got := requestCost(&OptimizeRequest{SQL: tc.sql}); got != tc.want {
			t.Errorf("requestCost(SQL %q) = %d, want %d", tc.sql, got, tc.want)
		}
	}
	spec := testSpec()
	if got := requestCost(&OptimizeRequest{Spec: &spec}); got != spec.Queries {
		t.Errorf("requestCost(spec) = %d, want %d", got, spec.Queries)
	}
}

// TestServerBadRequests sweeps the 4xx decode/validation surface.
func TestServerBadRequests(t *testing.T) {
	srv := New(Config{MaxQueries: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"empty", ``},
		{"not json", `hello`},
		{"neither payload", `{}`},
		{"both payloads", `{"sql": "SELECT l.tax FROM lineitem l", "spec": {"queries": 1, "fan_out": 2}}`},
		{"unknown field", `{"sql": "SELECT l.tax FROM lineitem l", "turbo": true}`},
		{"trailing garbage", `{"sql": "SELECT l.tax FROM lineitem l"} {}`},
		{"unknown strategy", `{"sql": "SELECT l.tax FROM lineitem l", "strategy": "exhaustive"}`},
		{"negative parallelism", `{"sql": "SELECT l.tax FROM lineitem l", "parallelism": -1}`},
		{"parallelism", `{"sql": "SELECT l.tax FROM lineitem l", "parallelism": 2}`}, // the searcher picks the width
		{"negative time budget", `{"sql": "SELECT l.tax FROM lineitem l", "time_budget_ms": -5}`},
		{"negative call budget", `{"sql": "SELECT l.tax FROM lineitem l", "oracle_call_budget": -1}`},
		{"bad sf", `{"sql": "SELECT l.tax FROM lineitem l", "sf": -2}`},
		{"bad shape", `{"spec": {"queries": 2, "shape": "donut", "fan_out": 2}}`},
		{"spec unknown field", `{"spec": {"queries": 2, "fan_out": 2, "warp": 9}}`},
		{"spec out of range", `{"spec": {"queries": 0, "fan_out": 2}}`},
		{"spec too many queries", `{"spec": {"queries": 1000, "fan_out": 2}}`},
		{"tenant name with a space", `{"sql": "SELECT l.tax FROM lineitem l", "tenant": "a b"}`},
		{"tenant name too long", `{"sql": "SELECT l.tax FROM lineitem l", "tenant": "` + strings.Repeat("x", 200) + `"}`},
		{"sf outside the allowlist", `{"sql": "SELECT l.tax FROM lineitem l", "sf": 1.001}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postOptimize(t, ts.URL, tc.body, nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, data)
			}
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Error == "" {
				t.Fatalf("error body not JSON with an error field: %s", data)
			}
			if eb.Code != codeBadRequest {
				t.Fatalf("error code = %q, want %q", eb.Code, codeBadRequest)
			}
		})
	}

	// Oversized body: 413 with its own stable code.
	big := fmt.Sprintf(`{"sql": %q}`, strings.Repeat("x", 2<<20))
	resp, data := postOptimize(t, ts.URL, big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeBodyTooLarge {
		t.Fatalf("413 body = %s, want code %s", data, codeBodyTooLarge)
	}
}

// blockingServer wires the preOptimize test hook: admitted requests
// signal on started and then hold their admission slot until gate closes.
func blockingServer(cfg Config) (*Server, chan struct{}, chan struct{}) {
	srv := New(cfg)
	started := make(chan struct{}, 64)
	gate := make(chan struct{})
	srv.preOptimize = func(ctx context.Context, req *OptimizeRequest) {
		started <- struct{}{}
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	return srv, started, gate
}

const tinySQL = `{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < 1200"}`

// TestServerQueueFull429: with one slot and a one-deep queue, the third
// concurrent request is rejected with 429 and a Retry-After header while
// the queued one completes once the blocker releases.
func TestServerQueueFull429(t *testing.T) {
	srv, started, gate := blockingServer(Config{
		Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 1, QueueWaitMS: 60000}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	do := func() {
		resp, data := postOptimize(t, ts.URL, tinySQL, nil)
		results <- result{resp.StatusCode, data}
	}
	go do() // occupies the slot, blocks in the hook
	<-started
	go do() // queues
	waitFor(t, func() bool { return srv.Admission().Stats()["default"].Queued == 1 })

	// Third request: queue full, immediate 429.
	resp, data := postOptimize(t, ts.URL, tinySQL, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status = %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.RetryAfterMS <= 0 || eb.Code != codeQueueFull {
		t.Errorf("429 body = %s, want code %s with retry_after_ms", data, codeQueueFull)
	}

	close(gate) // release the blocker; both held requests finish
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("held request status = %d: %s", r.status, r.body)
		}
	}
	st := srv.Admission().Stats()["default"]
	if st.Admitted != 2 || st.RejectedQueueFull != 1 {
		t.Errorf("tenant stats = %+v", st)
	}
}

// TestServerQueueWaitDeadline503: a queued request that cannot get a slot
// within the tenant's queue-wait deadline is rejected with 503.
func TestServerQueueWaitDeadline503(t *testing.T) {
	srv, started, gate := blockingServer(Config{
		Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 50}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan int, 1)
	go func() {
		resp, _ := postOptimize(t, ts.URL, tinySQL, nil)
		done <- resp.StatusCode
	}()
	<-started

	resp, data := postOptimize(t, ts.URL, tinySQL, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued status = %d, want 503: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeQueueTimeout {
		t.Errorf("503 body = %s, want code %s", data, codeQueueTimeout)
	}
	close(gate)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("blocking request status = %d", st)
	}
}

// TestServerQuotaExhaustion429: once a tenant's completed requests have
// spent its cumulative oracle-call quota, the next request is 429.
func TestServerQuotaExhaustion429(t *testing.T) {
	srv := New(Config{
		Tenants: map[string]TenantConfig{"*": {CallQuota: 1}}, // one oracle call, then cut off
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"spec": testSpec()})
	resp, data := postOptimize(t, ts.URL, string(body), map[string]string{"X-Tenant": "meter"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d: %s", resp.StatusCode, data)
	}
	if got := decodeResponse(t, data); got.Telemetry.OracleCalls < 1 {
		t.Fatalf("first request spent %d oracle calls, cannot exercise the quota", got.Telemetry.OracleCalls)
	}
	resp, data = postOptimize(t, ts.URL, string(body), map[string]string{"X-Tenant": "meter"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-quota status = %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "quota") {
		t.Errorf("rejection does not mention the quota: %s", data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeQuotaExhausted {
		t.Errorf("429 body = %s, want code %s", data, codeQuotaExhausted)
	}
	st := srv.Admission().Stats()["meter"]
	if st.RejectedQuota != 1 || st.QuotaSpent < 1 {
		t.Errorf("tenant stats = %+v", st)
	}
	// Other tenants are unaffected.
	resp, data = postOptimize(t, ts.URL, tinySQL, map[string]string{"X-Tenant": "other"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d: %s", resp.StatusCode, data)
	}
}

// TestServerCallBudgetZero: an explicit zero oracle-call budget is honored
// (empty materialization set, Stopped = call-budget) and still a 200 — a
// budgeted degradation, not an error.
func TestServerCallBudgetZero(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"spec": testSpec(), "oracle_call_budget": 0})
	resp, data := postOptimize(t, ts.URL, string(body), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)
	if len(got.Materialized) != 0 {
		t.Errorf("zero-budget run materialized %v", got.Materialized)
	}
	if got.Telemetry.Stopped.String() != "call-budget" {
		t.Errorf("stopped = %v, want call-budget", got.Telemetry.Stopped)
	}
}

// TestEffectiveSpecClamps: a request's budgets are the tightest of its
// own ask, its tenant's cap and, when degraded, the breaker's clamp. A
// call budget of 0 is an ask (forbid all calls), not "none", and an
// unbudgeted request stays unbudgeted (-1). Degraded serving forces
// LazyGreedy whatever the request named.
func TestEffectiveSpecClamps(t *testing.T) {
	calls := func(n int) *int { return &n }
	tenant := TenantConfig{TimeBudgetMS: 1000, CallBudget: 20000}
	cases := []struct {
		name     string
		req      OptimizeRequest
		cfg      TenantConfig
		degraded bool
		want     runSpec
	}{
		{"no ask, no cap", OptimizeRequest{}, TenantConfig{}, false,
			runSpec{core.MarginalGreedy, 0, -1}},
		{"strategy kept", OptimizeRequest{Strategy: "greedy"}, TenantConfig{}, false,
			runSpec{core.Greedy, 0, -1}},
		{"ask under cap", OptimizeRequest{TimeBudgetMS: 500, OracleCallBudget: calls(100)}, tenant, false,
			runSpec{core.MarginalGreedy, 500, 100}},
		{"ask over cap", OptimizeRequest{TimeBudgetMS: 5000, OracleCallBudget: calls(30000)}, tenant, false,
			runSpec{core.MarginalGreedy, 1000, 20000}},
		{"no ask, tenant cap", OptimizeRequest{}, tenant, false,
			runSpec{core.MarginalGreedy, 1000, 20000}},
		{"zero calls stays zero", OptimizeRequest{OracleCallBudget: calls(0)}, tenant, false,
			runSpec{core.MarginalGreedy, 1000, 0}},
		{"degraded, no ask, no cap", OptimizeRequest{Strategy: "marginal"}, TenantConfig{}, true,
			runSpec{core.LazyGreedyStrategy, degradedTimeBudgetMS, degradedCallBudget}},
		{"degraded under tenant cap", OptimizeRequest{}, tenant, true,
			runSpec{core.LazyGreedyStrategy, 1000, 20000}},
		{"degraded clamps a loose ask", OptimizeRequest{TimeBudgetMS: 3000, OracleCallBudget: calls(60000)}, TenantConfig{}, true,
			runSpec{core.LazyGreedyStrategy, degradedTimeBudgetMS, degradedCallBudget}},
		{"degraded clamps a loose tenant", OptimizeRequest{}, TenantConfig{TimeBudgetMS: 9000, CallBudget: 70000}, true,
			runSpec{core.LazyGreedyStrategy, degradedTimeBudgetMS, degradedCallBudget}},
		{"degraded keeps a tight ask", OptimizeRequest{TimeBudgetMS: 50, OracleCallBudget: calls(0)}, tenant, true,
			runSpec{core.LazyGreedyStrategy, 50, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := effectiveSpec(&tc.req, tc.cfg, tc.degraded); got != tc.want {
				t.Fatalf("effectiveSpec = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestServerBadSFRejectedBeforeAdmission: the sf allowlist is a pure
// function of the request and the config, so it is checked before
// admission — a request that can only ever be a 400 gets it at once even
// when the tenant's single slot is held, instead of queueing behind it
// (and possibly timing out of the queue with a 503), and it never counts
// as admitted.
func TestServerBadSFRejectedBeforeAdmission(t *testing.T) {
	srv, started, gate := blockingServer(Config{
		Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 1, QueueDepth: 4, QueueWaitMS: 60000}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	held := make(chan int, 1)
	go func() {
		resp, _ := postOptimize(t, ts.URL, tinySQL, nil)
		held <- resp.StatusCode
	}()
	<-started // the only slot is now held

	resp, data := postOptimize(t, ts.URL, `{"sql": "SELECT l.tax FROM lineitem l", "sf": 1.001}`, nil)
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || resp.StatusCode != http.StatusBadRequest || eb.Code != codeBadRequest {
		t.Fatalf("bad sf behind a held slot: status %d body %s, want an immediate 400", resp.StatusCode, data)
	}
	if st := srv.Admission().Stats()["default"]; st.Admitted != 1 || st.Queued != 0 {
		t.Fatalf("tenant stats %+v: the bad-sf request must not have been admitted or queued", st)
	}
	close(gate)
	if status := <-held; status != http.StatusOK {
		t.Fatalf("held request: status %d", status)
	}
}

// TestServerClientDisconnectCancels: when the client goes away while its
// request is admitted but not yet running, the handler returns promptly,
// freeing the tenant slot, and no optimizer work is spent on it.
func TestServerClientDisconnectCancels(t *testing.T) {
	srv := New(Config{Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 1}}})
	entered := make(chan struct{}, 1)
	firstReq := make(chan struct{}, 1)
	firstReq <- struct{}{}
	srv.preOptimize = func(ctx context.Context, req *OptimizeRequest) {
		select {
		case <-firstReq: // only the request under test is held
			entered <- struct{}{}
			<-ctx.Done() // hold until the client disconnect propagates
		default:
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"spec": testSpec()})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-entered // admitted and inside the handler
	cancel()  // client disconnects

	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("client error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client call did not return after cancel")
	}

	// The handler must finish promptly and release the slot: a fresh
	// request on the same single-slot tenant succeeds without queueing
	// anywhere near the 5s default deadline.
	waitFor(t, func() bool { return srv.Admission().Stats()["default"].Active == 0 })
	resp, data := postOptimize(t, ts.URL, tinySQL, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel request status = %d: %s", resp.StatusCode, data)
	}
	// The request's client left before its lane ran, so it was excised:
	// admitted and completed, but never part of a run — the session saw
	// only the post-cancel request and the tenant was charged only for it.
	// (A disconnect that lands mid-run cancels the run through the same
	// context; the Session cancellation tests pin that half.)
	var or OptimizeResponse
	if err := json.Unmarshal(data, &or); err != nil {
		t.Fatal(err)
	}
	ps := srv.pool.stats()
	if len(ps) != 1 || ps[0].Session.Batches != 1 || ps[0].Session.Interrupted != 0 {
		t.Fatalf("pool stats %+v: want one session that ran exactly the post-cancel request", ps)
	}
	st := srv.Admission().Stats()["default"]
	if st.Completed != 2 || st.QuotaSpent != int64(or.Telemetry.OracleCalls) {
		t.Fatalf("tenant completed=%d spent=%d, want 2 completed and only the live request's %d calls charged",
			st.Completed, st.QuotaSpent, or.Telemetry.OracleCalls)
	}
}

// TestServerGracefulDrain: draining rejects new work with 503 (and flips
// /healthz) while admitted in-flight requests run to completion.
func TestServerGracefulDrain(t *testing.T) {
	srv, started, gate := blockingServer(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	inflight := make(chan int, 1)
	go func() {
		resp, _ := postOptimize(t, ts.URL, tinySQL, nil)
		inflight <- resp.StatusCode
	}()
	<-started

	srv.Drain()
	resp, data := postOptimize(t, ts.URL, tinySQL, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining optimize status = %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining rejection without Retry-After")
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", hz.StatusCode)
	}

	close(gate) // in-flight request finishes despite the drain
	if st := <-inflight; st != http.StatusOK {
		t.Fatalf("in-flight request during drain = %d, want 200", st)
	}
}

// TestServerHealthzAndStats: the health and stats surfaces report the
// serving state, tenant counters and pooled-session telemetry.
func TestServerHealthzAndStats(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}

	if resp, data := postOptimize(t, ts.URL, tinySQL, map[string]string{"X-Tenant": "acme"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize = %d: %s", resp.StatusCode, data)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Draining {
		t.Error("stats report draining on a serving instance")
	}
	acme, ok := stats.Tenants["acme"]
	if !ok || acme.Admitted != 1 || acme.Completed != 1 {
		t.Errorf("tenant stats = %+v (present %v)", acme, ok)
	}
	if len(stats.Pool) != 1 || stats.Pool[0].Session.Batches != 1 || stats.Pool[0].SF != 1 {
		t.Errorf("pool stats = %+v", stats.Pool)
	}

	// GET on the optimize route is a 405 from the method-aware mux.
	r405, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	r405.Body.Close()
	if r405.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize = %d, want 405", r405.StatusCode)
	}
}

// TestServerStrictTenants403: a tenant table without "*" turns unknown
// tenants away at the door.
func TestServerStrictTenants403(t *testing.T) {
	srv := New(Config{
		Tenants: map[string]TenantConfig{"known": {}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts.URL, tinySQL, map[string]string{"X-Tenant": "stranger"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("stranger status = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeUnknownTenant {
		t.Errorf("403 body = %s, want code %s", data, codeUnknownTenant)
	}
	resp, data = postOptimize(t, ts.URL, tinySQL, map[string]string{"X-Tenant": "known"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("known tenant status = %d: %s", resp.StatusCode, data)
	}
}

// TestServerSessionPoolSharing: requests naming the same catalog share one
// session (warm shared cache), different catalogs get their own.
func TestServerSessionPoolSharing(t *testing.T) {
	srv := New(Config{PoolSize: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if resp, data := postOptimize(t, ts.URL, tinySQL, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, resp.StatusCode, data)
		}
	}
	if resp, data := postOptimize(t, ts.URL, `{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < 1200", "sf": 100}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("sf=100 request = %d: %s", resp.StatusCode, data)
	}
	ps := srv.pool.stats()
	if len(ps) != 2 {
		t.Fatalf("pool has %d entries, want 2: %+v", len(ps), ps)
	}
	var sf1Batches int
	for _, p := range ps {
		if p.SF == 1 {
			sf1Batches = p.Session.Batches
		}
	}
	if sf1Batches != 2 {
		t.Errorf("sf=1 session served %d batches, want 2 (pool sharing broken)", sf1Batches)
	}
}
