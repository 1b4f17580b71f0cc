package loadsim

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/workload"
)

func simSpec() workload.Spec {
	return workload.Spec{
		Seed:       7,
		Queries:    6,
		Shape:      workload.Mixed,
		FanOut:     4,
		Sharing:    0.5,
		SelectFrac: 0.8,
		AggFrac:    0.5,
	}
}

func openLoop(tenant string, rate, amp float64) TenantLoad {
	return TenantLoad{Tenant: tenant, RatePerSec: rate, DiurnalAmp: amp, Spec: simSpec()}
}

// TestGenTraceDeterministic: the trace is a pure function of its config —
// same seed, identical events and summary; different seed, a different
// trace. CI replays it in every row of the GOMAXPROCS test matrix.
func TestGenTraceDeterministic(t *testing.T) {
	cfg := TraceConfig{
		Seed:     42,
		Duration: 10 * time.Second,
		Tenants: []TenantLoad{
			openLoop("acme", 4, 0.5),
			openLoop("globex", 2, 0),
			{Tenant: "looper", Concurrency: 2, ThinkMS: 10, Spec: simSpec()},
		},
	}
	a, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed generated different events")
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("same seed, different summaries:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	if len(a.Events) == 0 {
		t.Fatal("trace has no arrivals")
	}
	if !sort.SliceIsSorted(a.Events, func(i, j int) bool { return a.Events[i].At < a.Events[j].At }) {
		t.Error("events are not time-sorted")
	}
	for _, e := range a.Events {
		if e.At < 0 || e.At >= cfg.Duration {
			t.Fatalf("event at %v outside [0, %v)", e.At, cfg.Duration)
		}
		if len(e.Body) == 0 || e.Key == "" {
			t.Fatalf("event missing body or key: %+v", e)
		}
	}
	if len(a.Closed) != 1 || a.Closed[0].Key != "looper|sf=1" {
		t.Errorf("closed loops = %+v", a.Closed)
	}

	cfg.Seed = 43
	c, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds generated identical traces")
	}

	// Varying seeds changes bodies request-to-request, deterministically.
	cfg.Seed = 42
	cfg.Tenants[0].VarySeeds = true
	d, err := GenTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bodies := make(map[string]bool)
	for _, e := range d.Events {
		if e.Tenant == "acme" {
			bodies[string(e.Body)] = true
		}
	}
	if len(bodies) < 2 {
		t.Errorf("VarySeeds produced %d distinct bodies", len(bodies))
	}
}

// TestGenTraceValidation: malformed configs are errors, not panics.
func TestGenTraceValidation(t *testing.T) {
	base := TraceConfig{Seed: 1, Duration: time.Second, Tenants: []TenantLoad{openLoop("t", 1, 0)}}
	for name, mutate := range map[string]func(*TraceConfig){
		"no duration":        func(c *TraceConfig) { c.Duration = 0 },
		"no tenants":         func(c *TraceConfig) { c.Tenants = nil },
		"unnamed tenant":     func(c *TraceConfig) { c.Tenants[0].Tenant = "" },
		"both loops":         func(c *TraceConfig) { c.Tenants[0].Concurrency = 2 },
		"neither loop":       func(c *TraceConfig) { c.Tenants[0].RatePerSec = 0 },
		"diurnal amp ≥ 1":    func(c *TraceConfig) { c.Tenants[0].DiurnalAmp = 1 },
		"negative amplitude": func(c *TraceConfig) { c.Tenants[0].DiurnalAmp = -0.1 },
	} {
		cfg := base
		cfg.Tenants = append([]TenantLoad(nil), base.Tenants...)
		mutate(&cfg)
		if _, err := GenTrace(cfg); err == nil {
			t.Errorf("%s: GenTrace accepted the config", name)
		}
	}
}

// TestRunAgainstSingleServer: a replay against a bare server (no router)
// completes every arrival, counts oracle calls, attributes everything to
// the "direct" pseudo-replica, and drives closed loops when paced.
func TestRunAgainstSingleServer(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tr, err := GenTrace(TraceConfig{
		Seed:     11,
		Duration: 2 * time.Second,
		Tenants: []TenantLoad{
			openLoop("acme", 10, 0.5),
			{Tenant: "looper", Concurrency: 2, Spec: simSpec()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// TimeScale 40 compresses the 2s trace into ~50ms so the closed-loop
	// workers get real wall clock to run in.
	rep, err := Run(context.Background(), tr, RunConfig{
		BaseURL: ts.URL, TimeScale: 40, MaxInFlight: 8, ScrapeStats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < len(tr.Events) {
		t.Errorf("replayed %d requests, trace has %d arrivals", rep.Requests, len(tr.Events))
	}
	if rep.Failed != 0 || rep.Rejected != 0 {
		t.Errorf("failures against a healthy server: %+v", rep.StatusCounts)
	}
	if rep.Goodput != rep.Requests {
		t.Errorf("goodput %d != requests %d", rep.Goodput, rep.Requests)
	}
	if rep.OracleCalls == 0 {
		t.Error("no oracle calls counted")
	}
	aff, home := rep.Affinity("acme|sf=1")
	if aff != 1 || home != "direct" {
		t.Errorf("direct-server affinity = (%v, %s), want (1, direct)", aff, home)
	}
	if n := rep.ByKeyReplica["looper|sf=1"]["direct"]; n == 0 {
		t.Error("closed-loop workers sent nothing")
	}
	if len(rep.StatsBody) == 0 {
		t.Error("stats scrape came back empty")
	}
	if rep.P50MS <= 0 || rep.P99MS < rep.P50MS || rep.P999MS < rep.P99MS {
		t.Errorf("percentiles look wrong: p50=%v p99=%v p999=%v", rep.P50MS, rep.P99MS, rep.P999MS)
	}
}

// TestRunRouterChurnZeroFailures is the churn acceptance gate: a replica
// killed mid-trace loses zero requests — the router reroutes its keys to
// their deterministic fallback and the replay's goodput equals its
// request count.
func TestRunRouterChurnZeroFailures(t *testing.T) {
	var servers []*httptest.Server
	var urls []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		defer ts.Close()
		servers = append(servers, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	tr, err := GenTrace(TraceConfig{
		Seed:     5,
		Duration: 2 * time.Second,
		Tenants:  []TenantLoad{openLoop("churn", 15, 0), openLoop("steady", 10, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	home := rt.Ring().Owner("churn|sf=1")
	kill := func() {
		for i, u := range urls {
			if u == home {
				servers[i].Close()
			}
		}
	}
	// A sequential replay keeps every placement under the bounded-load
	// capacity, so any non-home replica in the result is a reroute caused
	// by the kill, not load shedding.
	rep, err := Run(context.Background(), tr, RunConfig{
		BaseURL:     front.URL,
		MaxInFlight: 1,
		Hooks:       []Hook{{At: tr.Cfg.Duration / 2, Fn: kill}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != len(tr.Events) {
		t.Errorf("replayed %d, trace has %d", rep.Requests, len(tr.Events))
	}
	if rep.Failed != 0 || rep.Rejected != 0 {
		t.Fatalf("replica kill lost requests: %+v", rep.StatusCounts)
	}
	if rep.Goodput != rep.Requests {
		t.Fatalf("goodput %d != requests %d after churn", rep.Goodput, rep.Requests)
	}
	// The churn key was served by its home and then its fallback — and by
	// nothing else.
	fallback := rt.Ring().Order("churn|sf=1")[1]
	for rep2 := range rep.ByKeyReplica["churn|sf=1"] {
		if rep2 != home && rep2 != fallback {
			t.Errorf("churn key served by %s, want only %s or %s", rep2, home, fallback)
		}
	}
	if rep.ByKeyReplica["churn|sf=1"][fallback] == 0 {
		t.Error("no churn-key requests reached the fallback after the kill")
	}
	// Unaffected keys keep perfect affinity unless they lived on the
	// killed replica too.
	if aff, h := rep.Affinity("steady|sf=1"); h != home && aff != 1 {
		t.Errorf("steady key affinity = (%v, %s) though its home survived", aff, h)
	}
}
