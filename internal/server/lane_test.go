package server

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/memo"
	"repro/internal/workload"
)

// TestLaneOfOneMatchesSolo pins the single request path: the same
// requests sent to a server with batching off and to one whose batcher
// forms lanes of exactly one must produce identical responses, modulo
// wall-clock timings, schedule-dependent cache counters and the
// batched/batch_size markers — including everything only a lane of one
// may carry: plan text, a budget stop's checkpoint and its resume, and
// round-boundary preemption by a deadline waiter.
func TestLaneOfOneMatchesSolo(t *testing.T) {
	base := Config{Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000}}}
	post := func(t *testing.T, url string, body map[string]any) *OptimizeResponse {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, data := postOptimize(t, url, string(raw), nil)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return decodeResponse(t, data)
	}
	cases := []struct {
		name  string
		sched SchedConfig
		// run sends the case's requests and returns the responses to
		// compare; viaBatcher says, per response, whether a batching server
		// routes that request through its batcher.
		run        func(t *testing.T, srv *Server, url string) []*OptimizeResponse
		viaBatcher []bool
	}{
		{
			name: "plain",
			run: func(t *testing.T, _ *Server, url string) []*OptimizeResponse {
				return []*OptimizeResponse{post(t, url, map[string]any{"spec": testSpec()})}
			},
			viaBatcher: []bool{true},
		},
		{
			name: "plan_text",
			run: func(t *testing.T, _ *Server, url string) []*OptimizeResponse {
				r := post(t, url, map[string]any{"spec": testSpec(), "strategy": "lazymarginal", "plan_text": true})
				if r.PlanText == "" {
					t.Fatal("no plan text")
				}
				return []*OptimizeResponse{r}
			},
			viaBatcher: []bool{true},
		},
		{
			name: "budget stop then resume",
			run: func(t *testing.T, _ *Server, url string) []*OptimizeResponse {
				ref := soloReference(t, testSpec(), core.MarginalGreedy)
				first := post(t, url, map[string]any{"spec": testSpec(), "oracle_call_budget": ref.Telemetry.OracleCalls / 2})
				if first.Telemetry.Stopped != repro.StopCallBudget || first.Checkpoint == nil {
					t.Fatalf("budgeted run: stopped=%v checkpoint=%v", first.Telemetry.Stopped, first.Checkpoint)
				}
				second := post(t, url, map[string]any{"spec": testSpec(), "resume": first.Checkpoint})
				if second.Telemetry.Stopped != repro.StopNone {
					t.Fatalf("resumed run stopped with %v", second.Telemetry.Stopped)
				}
				return []*OptimizeResponse{first, second}
			},
			viaBatcher: []bool{true, false}, // a resume binds to its own search space
		},
		{
			name:  "preempted by a deadline waiter",
			sched: SchedConfig{Slots: 1},
			run: func(t *testing.T, srv *Server, url string) []*OptimizeResponse {
				done := make(chan *OptimizeResponse, 1)
				go func() {
					done <- post(t, url, map[string]any{"tenant": "bulk", "spec": bulkSpec(), "strategy": "greedy"})
				}()
				waitPreemptibleActive(t, srv.Admission())
				post(t, url, map[string]any{"tenant": "slo", "spec": testSpec(), "sf": 10, "deadline_ms": 2000})
				bulk := <-done
				if bulk == nil {
					t.Fatal("bulk run failed")
				}
				if bulk.Preemptions < 1 {
					t.Fatalf("bulk run reports %d preemptions, want ≥ 1", bulk.Preemptions)
				}
				// A pause changes no result and no count; only how many
				// land is the scheduler's call.
				bulk.Preemptions = 0
				return []*OptimizeResponse{bulk}
			},
			viaBatcher: []bool{true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(batch BatchConfig) []*OptimizeResponse {
				cfg := base
				cfg.Sched, cfg.Batch = tc.sched, batch
				srv := New(cfg)
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				return tc.run(t, srv, ts.URL)
			}
			solo := serve(BatchConfig{})
			lane := serve(BatchConfig{Enabled: true, MaxRequests: 1})
			for i := range solo {
				if solo[i].Batched || solo[i].BatchSize != 0 {
					t.Errorf("response %d: batching is off but batched=%v size=%d", i, solo[i].Batched, solo[i].BatchSize)
				}
				wantSize := 0
				if tc.viaBatcher[i] {
					wantSize = 1
				}
				if lane[i].Batched != tc.viaBatcher[i] || lane[i].BatchSize != wantSize {
					t.Errorf("response %d: batched=%v size=%d, want %v/%d", i, lane[i].Batched, lane[i].BatchSize, tc.viaBatcher[i], wantSize)
				}
				sw, lw := parityView(solo[i]), parityView(lane[i])
				if sw != lw {
					t.Errorf("response %d: work differs:\n  solo %+v\n  lane %+v", i, sw, lw)
				}
				if !reflect.DeepEqual(solo[i], lane[i]) {
					sj, _ := json.Marshal(solo[i])
					lj, _ := json.Marshal(lane[i])
					t.Errorf("response %d differs:\n  solo %s\n  lane %s", i, sj, lj)
				}
			}
		})
	}
}

// parityView strips what may legitimately differ between two servings of
// one request — timings, schedule-dependent cache counters and the
// batched markers — and returns the deterministic work counters.
func parityView(r *OptimizeResponse) core.Work {
	w := r.Telemetry.Work()
	r.Telemetry = core.Telemetry{}
	r.Batched, r.BatchSize = false, 0
	r.BuildNS, r.OptNS, r.ExtractNS, r.QueueWaitNS = 0, 0, 0, 0
	return w
}

// TestFaultedLaneSharesMatchCompletedSplit: a faulted lane charges its
// members by the rule a completed lane does — the burned telemetry split
// across coalesced groups by query count, then evenly within a group — so
// a 1-query member is not charged what its 3-query peer is. The lane holds
// two coalesced copies of a 1-query batch and one 3-query batch, and a
// panic on an oracle evaluation inside the search stops it.
func TestFaultedLaneSharesMatchCompletedSplit(t *testing.T) {
	srv := New(Config{Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000}}})
	var burned core.Telemetry
	var got []core.Telemetry
	srv.onLaneFault = func(total core.Telemetry, shares []core.Telemetry) { burned, got = total, shares }

	small, large := testSpec(), testSpec()
	small.Queries, large.Seed, large.Queries = 1, 8, 3
	member := func(spec workload.Spec) *batchMember {
		batch := workload.MustGenerate(spec)
		fp, _ := memo.BatchKey(batch)
		return &batchMember{ctx: context.Background(), batch: batch, fp: fp, tenant: "t", outcome: make(chan batchOutcome, 1)}
	}
	members := []*batchMember{member(small), member(large), member(small)}
	withSchedule(t, faultinject.NewSchedule(1,
		faultinject.Rule{Point: faultinject.OracleEval, N: 6, Panic: true}))
	srv.runLane(&lane{key: laneKey{pool: poolKey{sf: 1}, spec: runSpec{strategy: core.Greedy, callBudget: -1}}, members: members})

	if got == nil {
		t.Fatal("the lane did not fault")
	}
	// The completed-lane split, spelled out: the 1-query group and the
	// 3-query group by query count, then the 1-query group's share evenly
	// between its two members (positions 0 and 2).
	byGroup := repro.SplitTelemetry(burned, []int{1, 3})
	pair := repro.SplitTelemetry(byGroup[0], []int{1, 1})
	want := []core.Telemetry{pair[0], byGroup[1], pair[1]}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulted lane shares\n  %+v\nwant the completed-lane split\n  %+v", got, want)
	}
	for k, m := range members {
		if o := <-m.outcome; o.spent != want[k].OracleCalls {
			t.Errorf("member %d charged %d oracle calls, its share is %d", k, o.spent, want[k].OracleCalls)
		}
	}
	if want[1].BCCalls <= want[0].BCCalls {
		t.Fatalf("burned %d bc calls split %d / %d: the fixture does not tell the rules apart", burned.BCCalls, want[0].BCCalls, want[1].BCCalls)
	}
}
