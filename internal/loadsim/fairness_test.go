package loadsim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/server"
)

// result is the slice of an optimize response the fairness gate audits:
// the final result (bit-identity) and the scheduling counters.
type result struct {
	Materialized []int   `json:"materialized"`
	CostMS       float64 `json:"cost_ms"`
	Preemptions  int     `json:"preemptions"`
	Telemetry    struct {
		Stopped string `json:"stopped"`
	} `json:"telemetry"`
}

func bulkLoad() TenantLoad {
	s := simSpec()
	s.Seed = 31
	s.Queries = 48
	return TenantLoad{Tenant: "bulk", Concurrency: 16, Spec: s, Strategy: "greedy"}
}

func interactiveLoad() TenantLoad {
	s := simSpec()
	s.Seed = 13
	s.Queries = 12
	return TenantLoad{Tenant: "slo", RatePerSec: 18, Spec: s, DeadlineMS: 1000}
}

// schedServer builds one serving target, under DRR or FIFO, over a
// single shared worker slot — the contended regime the gate measures.
func schedServer(fifo bool) *httptest.Server {
	return httptest.NewServer(server.New(server.Config{
		Tenants: map[string]server.TenantConfig{"*": {MaxConcurrent: 8, QueueDepth: 64, QueueWaitMS: 60000}},
		Sched:   server.SchedConfig{Slots: 1, FIFO: fifo},
	}).Handler())
}

// solo posts one tenant-load-shaped request to an idle server and returns
// the decoded result and the observed latency — the per-tenant solo
// reference the slowdown accounting normalizes against.
func solo(t *testing.T, url string, l TenantLoad) (*result, float64) {
	t.Helper()
	body, err := buildBody(l, l.Spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	var out result
	var latencyMS float64
	// Three rounds: the first pays the cold session cache, the last is
	// the steady-state latency the loaded runs are compared against.
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("solo %s: status %d: %s", l.Tenant, resp.StatusCode, data)
		}
		latencyMS = float64(time.Since(t0)) / float64(time.Millisecond)
		out = result{}
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	}
	return &out, latencyMS
}

// sameResult is bit-identity over the audited slice: same materialization
// set, same cost float.
func sameResult(a, b *result) bool {
	if len(a.Materialized) != len(b.Materialized) || a.CostMS != b.CostMS {
		return false
	}
	for i := range a.Materialized {
		if a.Materialized[i] != b.Materialized[i] {
			return false
		}
	}
	return true
}

// replay runs the seeded contention trace against one policy's server and
// returns the report plus every bulk response body's decoded result.
func replay(t *testing.T, tr *Trace, url string) (*Report, []*result) {
	t.Helper()
	var bulkResults []*result
	rep, err := Run(context.Background(), tr, RunConfig{
		BaseURL: url, TimeScale: 1, MaxInFlight: 32,
		Observer: func(tenant string, status int, body []byte) {
			if tenant != "bulk" || status != 200 {
				return
			}
			var r result
			if json.Unmarshal(body, &r) == nil {
				bulkResults = append(bulkResults, &r)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, bulkResults
}

// TestSchedFairnessGate is the CI fairness/latency gate: one seeded
// two-tenant contention trace — closed-loop bulk greedy runs saturating a
// single worker slot, open-loop interactive arrivals with an SLO deadline
// — replayed against a FIFO baseline and against the DRR scheduler with
// deadline-aware preemption. Every latency bound is a ratio against the
// FIFO replay of the same trace in the same run, so the gate reads the
// same on a slow, shared or multi-core box. It holds the scheduler to the
// paper's serving claims:
//
//   - interactive p99 under DRR improves ≥ 3× over FIFO;
//   - preemptions actually happen (and FIFO reports none);
//   - bulk p50 under DRR is at most 2× FIFO's — latency relief is not
//     bought by starving bulk (the interactive tenant needs under a tenth
//     of the slot; a pause re-prices nothing, so the rest is the order
//     DRR serves the queue in);
//   - every paused bulk response is bit-identical to the unloaded
//     reference run.
func TestSchedFairnessGate(t *testing.T) {
	if testing.Short() {
		t.Skip("fairness gate measures wall-clock latency; skipped under -short")
	}
	tr, err := GenTrace(TraceConfig{
		Seed:     97,
		Duration: 2 * time.Second,
		Tenants:  []TenantLoad{bulkLoad(), interactiveLoad()},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Solo references on an idle DRR server: per-tenant unloaded latency
	// and the bulk result every loaded response must reproduce.
	refSrv := schedServer(false)
	bulkRef, bulkSoloMS := solo(t, refSrv.URL, bulkLoad())
	_, sloSoloMS := solo(t, refSrv.URL, interactiveLoad())
	refSrv.Close()

	fifoSrv := schedServer(true)
	fifoRep, fifoBulk := replay(t, tr, fifoSrv.URL)
	fifoSrv.Close()

	drrSrv := schedServer(false)
	drrRep, drrBulk := replay(t, tr, drrSrv.URL)
	drrSrv.Close()

	for _, rep := range []*Report{fifoRep, drrRep} {
		if rep.Failed != 0 || rep.Rejected != 0 {
			t.Fatalf("replay lost requests: %+v", rep.StatusCounts)
		}
		if rep.ByTenant["slo"] == nil || rep.ByTenant["slo"].Requests == 0 {
			t.Fatal("trace produced no interactive arrivals")
		}
	}

	fifoSLO, drrSLO := fifoRep.ByTenant["slo"], drrRep.ByTenant["slo"]
	fifoBulkP50, drrBulkP50 := fifoRep.ByTenant["bulk"].P50MS, drrRep.ByTenant["bulk"].P50MS
	t.Logf("solo: bulk=%.1fms slo=%.1fms", bulkSoloMS, sloSoloMS)
	t.Logf("slo: n=%d/%d p50 fifo=%.1fms drr=%.1fms (%.1fx) | p99 fifo=%.1fms drr=%.1fms (%.1fx); preemptions fifo=%d drr=%d",
		fifoSLO.Requests, drrSLO.Requests,
		fifoSLO.P50MS, drrSLO.P50MS, fifoSLO.P50MS/drrSLO.P50MS,
		fifoSLO.P99MS, drrSLO.P99MS, fifoSLO.P99MS/drrSLO.P99MS, fifoRep.Preemptions, drrRep.Preemptions)
	t.Logf("bulk: n=%d/%d p50 fifo=%.1fms drr=%.1fms (%.2fx)",
		fifoRep.ByTenant["bulk"].Requests, drrRep.ByTenant["bulk"].Requests,
		fifoBulkP50, drrBulkP50, drrBulkP50/fifoBulkP50)

	// Latency: ≥ 3× relief over FIFO at the tail.
	if drrSLO.P99MS*3 > fifoSLO.P99MS {
		t.Errorf("interactive p99: drr=%.1fms fifo=%.1fms — want ≥ 3x improvement", drrSLO.P99MS, fifoSLO.P99MS)
	}

	// Fairness: what the relief costs the bulk tenant, against the same
	// FIFO replay.
	if drrBulkP50 > 2*fifoBulkP50 {
		t.Errorf("bulk p50: drr=%.1fms fifo=%.1fms — want ≤ 2x degradation", drrBulkP50, fifoBulkP50)
	}

	// Preemption: the mechanism must actually fire under DRR, and must not
	// exist under the FIFO baseline.
	if drrRep.Preemptions == 0 {
		t.Error("DRR replay reports zero preemptions; the deadline traffic never paused a bulk run")
	}
	if fifoRep.Preemptions != 0 {
		t.Errorf("FIFO replay reports %d preemptions, want 0", fifoRep.Preemptions)
	}

	// Bit-identity: preemption must never change an answer. Every bulk
	// response from both replays reproduces the unloaded reference.
	for label, results := range map[string][]*result{"fifo": fifoBulk, "drr": drrBulk} {
		if len(results) == 0 {
			t.Fatalf("%s replay captured no bulk responses", label)
		}
		for i, r := range results {
			if r.Telemetry.Stopped != "none" {
				t.Errorf("%s bulk response %d stopped with %q, want a completed run", label, i, r.Telemetry.Stopped)
				continue
			}
			if !sameResult(r, bulkRef) {
				t.Errorf("%s bulk response %d (preemptions=%d) diverged from the solo reference", label, i, r.Preemptions)
			}
		}
	}
}
