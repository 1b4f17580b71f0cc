package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
)

// testCluster stands up n real serving replicas plus a router in front of
// them, all on httptest listeners.
type testCluster struct {
	urls    []string
	servers []*httptest.Server
	srvs    []*server.Server
	rt      *Router
	front   *httptest.Server
}

func newTestCluster(tb testing.TB, n int, cfg server.Config) *testCluster {
	tb.Helper()
	c := &testCluster{}
	for i := 0; i < n; i++ {
		srv := server.New(cfg)
		ts := httptest.NewServer(srv.Handler())
		tb.Cleanup(ts.Close)
		c.srvs = append(c.srvs, srv)
		c.servers = append(c.servers, ts)
		c.urls = append(c.urls, ts.URL)
	}
	rt, err := NewRouter(RouterConfig{Replicas: c.urls})
	if err != nil {
		tb.Fatal(err)
	}
	c.rt = rt
	c.front = httptest.NewServer(rt.Handler())
	tb.Cleanup(c.front.Close)
	return c
}

// replicaAt maps a replica URL back to its index in the cluster.
func (c *testCluster) replicaAt(url string) int {
	for i, u := range c.urls {
		if u == url {
			return i
		}
	}
	return -1
}

func clusterSpec() workload.Spec {
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

func specBody(tb testing.TB, extra map[string]any) string {
	tb.Helper()
	m := map[string]any{"spec": clusterSpec()}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		tb.Fatal(err)
	}
	return string(b)
}

func post(tb testing.TB, url, body string, hdr map[string]string) (*http.Response, []byte) {
	tb.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp, data
}

func decodeOptimize(tb testing.TB, data []byte) *server.OptimizeResponse {
	tb.Helper()
	var out server.OptimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		tb.Fatalf("decoding response: %v\n%s", err, data)
	}
	return &out
}

// TestRouterParityOptimize: a request served through the router returns
// exactly what the same request served directly by its home replica
// returns — same deterministic counters, same plan — and the response
// names that replica in X-MQO-Replica.
func TestRouterParityOptimize(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{})
	body := specBody(t, nil)
	hdr := map[string]string{"X-Tenant": "acme"}
	owner := c.rt.Ring().Owner("acme|sf=1")

	resp, refData := post(t, owner, body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("direct run = %d: %s", resp.StatusCode, refData)
	}
	ref := decodeOptimize(t, refData)

	resp, gotData := post(t, c.front.URL, body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed run = %d: %s", resp.StatusCode, gotData)
	}
	if rep := resp.Header.Get(ReplicaHeader); rep != owner {
		t.Errorf("served by %s, ring owner is %s", rep, owner)
	}
	got := decodeOptimize(t, gotData)
	if got.CostMS != ref.CostMS || got.BenefitMS != ref.BenefitMS {
		t.Errorf("routed costs (%v, %v) != direct (%v, %v)", got.CostMS, got.BenefitMS, ref.CostMS, ref.BenefitMS)
	}
	if len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("routed set %v != %v", got.Materialized, ref.Materialized)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("routed set %v != %v", got.Materialized, ref.Materialized)
		}
	}
	if got.Telemetry.OracleCalls != ref.Telemetry.OracleCalls {
		t.Errorf("routed oracle calls %d != direct %d", got.Telemetry.OracleCalls, ref.Telemetry.OracleCalls)
	}

	// A malformed body is the replica's 400 to give, relayed verbatim —
	// the router's lenient probe must not pre-empt strict validation.
	resp, data := post(t, c.front.URL, `{"spec": {"seed": 7}, "bogus": 1}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body via router = %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get(ReplicaHeader) == "" {
		t.Error("400 relay carries no replica header — was it answered locally?")
	}
}

// TestRouterRejectParity: 403 (strict tenants) and 429 (quota) are
// relayed verbatim and never retried on another replica — a rejected
// tenant must not be able to launder its rejection through failover.
func TestRouterRejectParity(t *testing.T) {
	strict := newTestCluster(t, 2, server.Config{
		Tenants: map[string]server.TenantConfig{"known": {}},
	})
	resp, data := post(t, strict.front.URL, specBody(t, nil), map[string]string{"X-Tenant": "stranger"})
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("stranger via router = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "unknown_tenant" {
		t.Errorf("403 body = %s, want code unknown_tenant", data)
	}
	if n := strict.rt.retries.Load(); n != 0 {
		t.Errorf("router retried a 403 %d times", n)
	}
	if resp, data = post(t, strict.front.URL, specBody(t, nil), map[string]string{"X-Tenant": "known"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("known tenant via router = %d: %s", resp.StatusCode, data)
	}

	metered := newTestCluster(t, 3, server.Config{
		Tenants: map[string]server.TenantConfig{"*": {CallQuota: 1}},
	})
	body := specBody(t, nil)
	hdr := map[string]string{"X-Tenant": "meter"}
	resp, data = post(t, metered.front.URL, body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first metered request = %d: %s", resp.StatusCode, data)
	}
	first := resp.Header.Get(ReplicaHeader)
	resp, data = post(t, metered.front.URL, body, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-quota via router = %d: %s — a retry would launder the quota", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != "quota_exhausted" {
		t.Errorf("429 body = %s, want code quota_exhausted", data)
	}
	if rep := resp.Header.Get(ReplicaHeader); rep != first {
		t.Errorf("429 came from %s, quota was spent on %s — affinity broke", rep, first)
	}
	if n := metered.rt.retries.Load(); n != 0 {
		t.Errorf("router retried a 429 %d times", n)
	}
}

// TestRouterResumeParity: a call-budget-stopped run through the router
// yields a checkpoint whose resume — also through the router — completes
// to the uninterrupted result, bit-identically.
func TestRouterResumeParity(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{})
	hdr := map[string]string{"X-Tenant": "resumer"}

	resp, data := post(t, c.front.URL, specBody(t, nil), hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, data)
	}
	ref := decodeOptimize(t, data)

	resp, data = post(t, c.front.URL, specBody(t, map[string]any{"oracle_call_budget": ref.Telemetry.OracleCalls / 2}), hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted = %d: %s", resp.StatusCode, data)
	}
	stopped := decodeOptimize(t, data)
	if stopped.Telemetry.Stopped.String() != "call-budget" || stopped.Checkpoint == nil {
		t.Fatalf("budgeted run stopped=%v checkpoint=%v, want a resumable call-budget stop",
			stopped.Telemetry.Stopped, stopped.Checkpoint != nil)
	}

	resp, data = post(t, c.front.URL, specBody(t, map[string]any{"resume": stopped.Checkpoint}), hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume via router = %d: %s", resp.StatusCode, data)
	}
	got := decodeOptimize(t, data)
	if got.CostMS != ref.CostMS || len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("resumed (%v, %v) != reference (%v, %v)", got.CostMS, got.Materialized, ref.CostMS, ref.Materialized)
	}
	for i := range got.Materialized {
		if got.Materialized[i] != ref.Materialized[i] {
			t.Fatalf("resumed set %v != %v", got.Materialized, ref.Materialized)
		}
	}
	if got.Checkpoint != nil {
		t.Error("unbudgeted resume still carries a checkpoint")
	}
}

// TestRouterAffinity: with healthy replicas every tenant-catalog key
// sticks to its ring owner — the property that keeps per-key caches warm.
// The acceptance bar is ≥90%; a healthy sequential trace achieves 100%.
func TestRouterAffinity(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{})
	tenants := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	served := make(map[string]map[string]int) // tenant → replica → count
	for round := 0; round < 4; round++ {
		for _, tn := range tenants {
			resp, data := post(t, c.front.URL, specBody(t, nil), map[string]string{"X-Tenant": tn})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("tenant %s round %d = %d: %s", tn, round, resp.StatusCode, data)
			}
			rep := resp.Header.Get(ReplicaHeader)
			if served[tn] == nil {
				served[tn] = make(map[string]int)
			}
			served[tn][rep]++
		}
	}
	homes := make(map[string]bool)
	for _, tn := range tenants {
		owner := c.rt.Ring().Owner(tn + "|sf=1")
		total, home := 0, 0
		for rep, n := range served[tn] {
			total += n
			if rep == owner {
				home += n
			}
		}
		if float64(home) < 0.9*float64(total) {
			t.Errorf("tenant %s: %d/%d requests on home replica %s (%v)", tn, home, total, owner, served[tn])
		}
		homes[owner] = true
	}
	if len(homes) < 2 {
		t.Logf("note: all %d tenants hashed to one replica — affinity still holds", len(tenants))
	}
}

// TestRouterFailover: killing a replica mid-trace loses zero requests —
// its keys spill to their deterministic fallback — and draining the
// fallback spills them once more, still without a failed request.
func TestRouterFailover(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{})
	hdr := map[string]string{"X-Tenant": "churn"}
	body := specBody(t, nil)
	order := c.rt.Ring().Order("churn|sf=1")

	for i := 0; i < 5; i++ {
		resp, data := post(t, c.front.URL, body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-kill request %d = %d: %s", i, resp.StatusCode, data)
		}
		if rep := resp.Header.Get(ReplicaHeader); rep != order[0] {
			t.Fatalf("pre-kill request %d served by %s, want home %s", i, rep, order[0])
		}
	}

	// Kill the home replica: the listener closes, forwards get connection
	// errors, and the router must absorb them without failing a request.
	c.servers[c.replicaAt(order[0])].Close()
	for i := 0; i < 5; i++ {
		resp, data := post(t, c.front.URL, body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-kill request %d = %d: %s", i, resp.StatusCode, data)
		}
		if rep := resp.Header.Get(ReplicaHeader); rep != order[1] {
			t.Fatalf("post-kill request %d served by %s, want fallback %s", i, rep, order[1])
		}
	}
	if c.rt.health.snapshot(order[0]).up {
		t.Error("killed replica still marked up after failed forwards")
	}

	// Drain the fallback: its 503 draining rejections are provably
	// unexecuted, so requests hop once more to the last replica.
	c.srvs[c.replicaAt(order[1])].Drain()
	for i := 0; i < 5; i++ {
		resp, data := post(t, c.front.URL, body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain request %d = %d: %s", i, resp.StatusCode, data)
		}
		if rep := resp.Header.Get(ReplicaHeader); rep != order[2] {
			t.Fatalf("post-drain request %d served by %s, want %s", i, rep, order[2])
		}
	}
	if !c.rt.health.snapshot(order[1]).draining {
		t.Error("drained replica not marked draining after its rejection")
	}

	// Everything gone → an orderly 503, not a hang or a panic.
	c.servers[c.replicaAt(order[1])].Close()
	c.servers[c.replicaAt(order[2])].Close()
	resp, data := post(t, c.front.URL, body, hdr)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-replica request = %d: %s", resp.StatusCode, data)
	}
	var eb errorBody
	if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeNoReplicas {
		t.Errorf("no-replica body = %s, want code %s", data, codeNoReplicas)
	}
}

// TestRouterClientCancelKeepsReplicaUp: a client that disconnects while
// its request is being forwarded fails the forward with the client's own
// cancellation. That is no evidence against the replica: it must stay up,
// and the key's next request must still land on its ring owner.
func TestRouterClientCancelKeepsReplicaUp(t *testing.T) {
	entered := make(chan string, 1)
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	var urls []string
	for i := 0; i < 2; i++ {
		var ts *httptest.Server
		ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case entered <- ts.URL:
			default:
			}
			select {
			case <-release:
			case <-r.Context().Done():
			}
			_, _ = io.WriteString(w, "{}")
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	t.Cleanup(unblock) // runs before the servers close, which wait for their handlers
	rt, err := NewRouter(RouterConfig{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	owner := rt.Ring().Owner("gone|sf=1")
	send := func(ctx context.Context) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", strings.NewReader(specBody(t, nil))).WithContext(ctx)
		req.Header.Set("X-Tenant", "gone")
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		return rec
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		send(ctx)
	}()
	if got := <-entered; got != owner {
		t.Fatalf("first forward went to %s, want ring owner %s", got, owner)
	}
	cancel() // the client leaves while the owner holds the request
	<-done
	if h := rt.health.snapshot(owner); !h.up {
		t.Errorf("client cancellation marked the replica down (lastErr %q)", h.lastErr)
	}

	unblock()
	rec := send(context.Background())
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request = %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get(ReplicaHeader); got != owner {
		t.Errorf("follow-up request served by %s, want ring owner %s", got, owner)
	}
}

// TestRouterStatsAndHealthz: the aggregated stats carry every replica's
// own stats document plus router counters, and /healthz degrades and
// fails as replicas disappear.
func TestRouterStatsAndHealthz(t *testing.T) {
	c := newTestCluster(t, 3, server.Config{})
	if resp, data := post(t, c.front.URL, specBody(t, nil), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup = %d: %s", resp.StatusCode, data)
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(c.front.URL + path)
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

	resp, data := get("/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d: %s", resp.StatusCode, data)
	}
	var stats RouterStats
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replicas != 3 || stats.Healthy != 3 || stats.Forwarded < 1 {
		t.Errorf("stats = %+v, want 3 replicas, 3 healthy, ≥1 forwarded", stats)
	}
	if len(stats.PerReplica) != 3 {
		t.Fatalf("per-replica stats for %d replicas, want 3", len(stats.PerReplica))
	}
	for rep, raw := range stats.PerReplica {
		if !strings.Contains(string(raw), "tenants") {
			t.Errorf("replica %s stats look wrong: %s", rep, raw)
		}
	}

	resp, data = get("/healthz")
	var hz routerHealthz
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz = %d %q, want 200 ok: %s", resp.StatusCode, hz.Status, data)
	}

	c.servers[0].Close()
	resp, data = get("/healthz")
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hz.Status != "degraded" {
		t.Fatalf("healthz after one kill = %d %q: %s", resp.StatusCode, hz.Status, data)
	}

	c.servers[1].Close()
	c.servers[2].Close()
	resp, data = get("/healthz")
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "down" {
		t.Fatalf("healthz after all kills = %d %q: %s", resp.StatusCode, hz.Status, data)
	}
}

// TestRouterDefaultSFMatchesReplicas: with the router and its replicas
// all at DefaultSF 10, an sf-less request routes under the same catalog
// key as an explicit "sf": 10 one, so one tenant's two requests land on
// one replica, the home of "tenant|sf=10". The tenant is picked so that
// "tenant|sf=1" lives elsewhere: a router that ignored DefaultSF would
// split the two.
func TestRouterDefaultSFMatchesReplicas(t *testing.T) {
	c := newTestCluster(t, 2, server.Config{DefaultSF: 10})
	rt, err := NewRouter(RouterConfig{Replicas: c.urls, DefaultSF: 10})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	tenant := ""
	for i := 0; tenant == ""; i++ {
		name := "tenant-" + strconv.Itoa(i)
		if rt.Ring().Owner(name+"|sf=10") != rt.Ring().Owner(name+"|sf=1") {
			tenant = name
		}
	}
	home := rt.Ring().Owner(tenant + "|sf=10")
	hdr := map[string]string{"X-Tenant": tenant}
	for _, body := range []string{specBody(t, nil), specBody(t, map[string]any{"sf": 10})} {
		resp, data := post(t, front.URL, body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, resp.StatusCode, data)
		}
		if got := resp.Header.Get(ReplicaHeader); got != home {
			t.Fatalf("%s served by %s, want %s, the home of %s|sf=10", body, got, home, tenant)
		}
	}
	stats := c.srvs[c.replicaAt(home)].Admission().Stats()[tenant]
	if stats.Completed != 2 {
		t.Fatalf("home replica completed %d of the tenant's requests, want 2", stats.Completed)
	}
}
