package repro

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// almostEqual absorbs last-ulp differences between a plan's Total (summed
// per subtree during extraction) and bc(S) (summed by the cost search).
func almostEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= 1e-9*scale
}

func newTestSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	sess, err := NewSession(tpcd.Catalog(1), cost.Default(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// withProcs runs the rest of the test at GOMAXPROCS n — how a test picks
// how wide the oracle's batches may run — and restores it at cleanup. No
// test calls t.Parallel, so nothing else runs meanwhile.
func withProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSessionMatchesOneShotAllStrategies pins the sessionized path to the
// bare strategy run: with no budget set, every strategy must choose the
// same materializations at the same cost as core.RunWith on a fresh
// optimizer — which is itself pinned bit-for-bit to the seed-oracle
// goldens by TestOracleParityGolden.
func TestSessionMatchesOneShotAllStrategies(t *testing.T) {
	sess := newTestSession(t)
	batch := tpcd.BQ(2)
	for _, s := range []Strategy{
		core.Volcano, core.Greedy, core.LazyGreedyStrategy, core.MarginalGreedy,
		core.LazyMarginalGreedy, core.MaterializeAll, core.VolcanoSH,
	} {
		opt, err := volcano.NewOptimizer(tpcd.Catalog(1), cost.Default(), batch)
		if err != nil {
			t.Fatal(err)
		}
		want := core.RunWith(context.Background(), opt, s, core.Config{})
		got, err := sess.Optimize(context.Background(), batch, WithStrategy(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.Cost != want.Cost {
			t.Errorf("%v: session cost %v != one-shot %v", s, got.Cost, want.Cost)
		}
		if len(got.Materialized) != len(want.Materialized) {
			t.Fatalf("%v: session set %v != one-shot %v", s, got.Materialized, want.Materialized)
		}
		for i := range got.Materialized {
			if got.Materialized[i] != want.Materialized[i] {
				t.Fatalf("%v: session set %v != one-shot %v", s, got.Materialized, want.Materialized)
			}
		}
		if got.Telemetry.Stopped != StopNone {
			t.Errorf("%v: unbudgeted session run reports Stopped=%v", s, got.Telemetry.Stopped)
		}
		if got.Plan == nil || !almostEqual(got.Plan.Total, got.Cost) {
			t.Errorf("%v: plan total %v != cost %v", s, got.Plan.Total, got.Cost)
		}
	}
}

func TestSessionPlanValidates(t *testing.T) {
	withProcs(t, 2)
	sess := newTestSession(t)
	r, err := sess.Optimize(context.Background(), tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("extracted plan failed validation: %v", err)
	}
	if len(r.Plan.QueryNames) != len(tpcd.BQ(3).Queries) {
		t.Errorf("plan covers %d queries, batch has %d", len(r.Plan.QueryNames), len(tpcd.BQ(3).Queries))
	}
	if r.BuildTime <= 0 || r.ExtractTime < 0 {
		t.Errorf("phase times: build %v extract %v", r.BuildTime, r.ExtractTime)
	}
}

// TestSessionCancelDeterministic cancels MarginalGreedy from the progress
// callback after its second round, twice; both runs must stop at the same
// round with the same best-so-far set (same seed ⇒ same set).
func TestSessionCancelDeterministic(t *testing.T) {
	run := func() *RunResult {
		sess := newTestSession(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		r, err := sess.Optimize(ctx, tpcd.BQ(4),
			WithStrategy(core.MarginalGreedy),
			WithProgress(func(p Progress) {
				if p.Round == 2 {
					cancel()
				}
			}))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Telemetry.Stopped != StopCancelled {
		t.Fatalf("Stopped = %v, want %v", a.Telemetry.Stopped, StopCancelled)
	}
	if len(a.Materialized) != 2 {
		t.Errorf("cancelled after round 2 kept %d materializations", len(a.Materialized))
	}
	if len(a.Materialized) != len(b.Materialized) || a.Cost != b.Cost {
		t.Fatalf("cancellation nondeterministic: %v/%v vs %v/%v",
			a.Materialized, a.Cost, b.Materialized, b.Cost)
	}
	for i := range a.Materialized {
		if a.Materialized[i] != b.Materialized[i] {
			t.Fatalf("cancellation nondeterministic: %v vs %v", a.Materialized, b.Materialized)
		}
	}
	// The best-so-far prefix must be a subset of the full run's choices
	// and price below the no-MQO baseline.
	full, err := newTestSession(t).Optimize(context.Background(), tpcd.BQ(4))
	if err != nil {
		t.Fatal(err)
	}
	fullSet := map[int64]bool{}
	for _, id := range full.Materialized {
		fullSet[int64(id)] = true
	}
	for _, id := range a.Materialized {
		if !fullSet[int64(id)] {
			t.Errorf("prefix picked %d, which the full run never materializes", id)
		}
	}
	if a.Cost > a.VolcanoCost {
		t.Errorf("best-so-far cost %v above no-MQO %v", a.Cost, a.VolcanoCost)
	}
	if !almostEqual(a.Plan.Total, a.Cost) {
		t.Errorf("best-so-far plan total %v != cost %v", a.Plan.Total, a.Cost)
	}
}

// TestBudgetZeroOracleCallsViaSession: a zero oracle-call budget returns
// the empty set plus populated telemetry without any algorithm oracle
// spend.
func TestBudgetZeroOracleCallsViaSession(t *testing.T) {
	sess := newTestSession(t)
	r, err := sess.Optimize(context.Background(), tpcd.BQ(2), WithOracleCallBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Materialized) != 0 || len(r.Plan.Steps) != 0 {
		t.Errorf("zero budget materialized %v (plan steps %d)", r.Materialized, len(r.Plan.Steps))
	}
	if r.Telemetry.Stopped != StopCallBudget || r.Telemetry.OracleCalls != 0 {
		t.Errorf("telemetry %+v, want StopCallBudget with 0 oracle calls", r.Telemetry)
	}
	if r.Cost != r.VolcanoCost || !almostEqual(r.Plan.Total, r.Cost) {
		t.Errorf("empty set must price at bc(∅): cost %v, bc(∅) %v, plan %v",
			r.Cost, r.VolcanoCost, r.Plan.Total)
	}
	if r.Telemetry.TotalTime <= 0 || r.Telemetry.BCCalls <= 0 {
		t.Errorf("telemetry not populated: %+v", r.Telemetry)
	}
}

// TestBudgetOracleCallsDeterministic: the same budget yields the same set
// on repeated runs, and a generous budget reproduces the unbudgeted
// answer.
func TestBudgetOracleCallsDeterministic(t *testing.T) {
	sess := newTestSession(t)
	batch := tpcd.BQ(3)
	full, err := sess.Optimize(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{10, 50, 1 << 20} {
		var sets [][]int64
		for i := 0; i < 2; i++ {
			r, err := sess.Optimize(context.Background(), batch, WithOracleCallBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]int64, len(r.Materialized))
			for j, id := range r.Materialized {
				ids[j] = int64(id)
			}
			sets = append(sets, ids)
			if budget >= 1<<20 {
				if r.Telemetry.Stopped != StopNone || r.Cost != full.Cost {
					t.Errorf("budget %d truncated the run: %+v", budget, r.Telemetry)
				}
			}
		}
		if len(sets[0]) != len(sets[1]) {
			t.Fatalf("budget %d nondeterministic: %v vs %v", budget, sets[0], sets[1])
		}
		for j := range sets[0] {
			if sets[0][j] != sets[1][j] {
				t.Fatalf("budget %d nondeterministic: %v vs %v", budget, sets[0], sets[1])
			}
		}
	}
}

func TestSessionTimeBudgetStops(t *testing.T) {
	sess := newTestSession(t)
	r, err := sess.Optimize(context.Background(), tpcd.BQ(4), WithTimeBudget(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry.Stopped != StopTimeBudget {
		t.Fatalf("Stopped = %v, want %v", r.Telemetry.Stopped, StopTimeBudget)
	}
	if r.Cost > r.VolcanoCost {
		t.Errorf("best-so-far cost %v above no-MQO %v", r.Cost, r.VolcanoCost)
	}
	if !almostEqual(r.Plan.Total, r.Cost) {
		t.Errorf("plan total %v != cost %v", r.Plan.Total, r.Cost)
	}
}

func TestSessionStatsAggregate(t *testing.T) {
	sess := newTestSession(t)
	if _, err := sess.Optimize(context.Background(), tpcd.BQ(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Optimize(context.Background(), tpcd.BQ(2), WithOracleCallBudget(0)); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Batches != 2 || st.Interrupted != 1 {
		t.Errorf("stats %+v, want 2 batches with 1 interrupted", st)
	}
	if st.OracleCalls <= 0 || st.BCCalls <= 0 || st.BuildTime <= 0 {
		t.Errorf("stats not aggregated: %+v", st)
	}
}

// TestSessionConcurrentOptimize exercises concurrent Optimize calls on one
// session (each call owns its DAG; the shared state is only the stats).
func TestSessionConcurrentOptimize(t *testing.T) {
	withProcs(t, 2)
	sess := newTestSession(t)
	const n = 4
	costs := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := sess.Optimize(context.Background(), tpcd.BQ(2))
			if err != nil {
				t.Error(err)
				return
			}
			costs[i] = r.Cost
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if costs[i] != costs[0] {
			t.Fatalf("concurrent runs diverged: %v", costs)
		}
	}
	if st := sess.Stats(); st.Batches != n {
		t.Errorf("stats recorded %d batches, want %d", st.Batches, n)
	}
}

func TestSessionProgressReports(t *testing.T) {
	sess := newTestSession(t)
	var rounds []int
	_, err := sess.Optimize(context.Background(), tpcd.BQ(2),
		WithProgress(func(p Progress) { rounds = append(rounds, p.Round) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no progress reports")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != rounds[i-1]+1 {
			t.Fatalf("rounds not consecutive: %v", rounds)
		}
	}
}

func TestSessionNilCatalogRejected(t *testing.T) {
	if _, err := NewSession(nil, cost.Default()); err == nil {
		t.Error("nil catalog accepted")
	}
}

func TestSessionInvalidBatchRejected(t *testing.T) {
	sess := newTestSession(t)
	if _, err := sess.Optimize(context.Background(), nil); err == nil {
		t.Error("nil batch accepted")
	}
}

// TestSessionSharedCacheWarmsAcrossBatches: the session-owned cost cache
// makes a repeat of an identical batch start warm — the second call
// reports SharedCache hits and recomputes fewer keys — while choosing the
// same set at the same cost. An unrelated batch in between must neither
// pollute nor benefit: its DAG fingerprint namespaces its entries.
func TestSessionSharedCacheWarmsAcrossBatches(t *testing.T) {
	withProcs(t, 1)
	sess := newTestSession(t)
	ctx := context.Background()
	batch := tpcd.BQ(3)

	cold, err := sess.Optimize(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Telemetry.SharedHits != 0 {
		t.Errorf("first call reported %d shared hits", cold.Telemetry.SharedHits)
	}

	if _, err := sess.Optimize(ctx, tpcd.BQ(1)); err != nil { // unrelated batch
		t.Fatal(err)
	}

	warm, err := sess.Optimize(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Telemetry.SharedHits == 0 {
		t.Error("repeat of an identical batch never hit the session cache")
	}
	if warm.Telemetry.ComputedKeys >= cold.Telemetry.ComputedKeys {
		t.Errorf("warm call recomputed %d keys, cold %d — no amortization",
			warm.Telemetry.ComputedKeys, cold.Telemetry.ComputedKeys)
	}
	if fmt.Sprint(warm.Materialized) != fmt.Sprint(cold.Materialized) || warm.Cost != cold.Cost {
		t.Errorf("warm result diverged: %v/%v vs %v/%v",
			warm.Materialized, warm.Cost, cold.Materialized, cold.Cost)
	}
}

// TestSessionVolcanoSHCountsSharedHits: Volcano-SH snapshots the same
// searcher counters as every other strategy, so a repeat of a batch on a
// warm session reports the SharedCache hits that replaced its key
// computations, and the session's total is the sum over its results.
func TestSessionVolcanoSHCountsSharedHits(t *testing.T) {
	withProcs(t, 1)
	sess := newTestSession(t, WithStrategy(core.VolcanoSH))
	ctx := context.Background()
	batch := tpcd.BQ(3)
	sum := 0
	var warm *RunResult
	for i := 0; i < 2; i++ {
		rr, err := sess.Optimize(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		sum += rr.Telemetry.SharedHits
		warm = rr
	}
	if warm.Telemetry.ComputedKeys != 0 || warm.Telemetry.SharedHits == 0 {
		t.Errorf("warm Volcano-SH run: computed_keys=%d shared_hits=%d, want 0 and > 0",
			warm.Telemetry.ComputedKeys, warm.Telemetry.SharedHits)
	}
	if got := sess.Stats().SharedHits; got != sum {
		t.Errorf("session counts %d shared hits, results sum to %d", got, sum)
	}
}

// TestSessionInvalidateCacheForcesColdStart: after InvalidateCache a
// repeated batch relearns from scratch, bit-identically.
func TestSessionInvalidateCacheForcesColdStart(t *testing.T) {
	withProcs(t, 1)
	sess := newTestSession(t)
	ctx := context.Background()
	batch := tpcd.BQ(2)
	first, err := sess.Optimize(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	sess.InvalidateCache()
	again, err := sess.Optimize(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if again.Telemetry.SharedHits != 0 {
		t.Errorf("invalidated cache still served %d hits", again.Telemetry.SharedHits)
	}
	if again.Cost != first.Cost {
		t.Errorf("cost changed across invalidation: %v vs %v", again.Cost, first.Cost)
	}
}

// TestSessionStagesCoverWall: the four stage clocks of a RunResult — DAG
// build, strategy run, plan extraction, cache publish — account for the
// call: on a cold 32-query Optimize they sum to within 10 % of the wall
// measured around it. (Before PublishTime existed the publish, two fifths
// of such a call, had no clock.) The result must also still validate: the
// publish has moved the searcher's cache buckets into the session cache by
// the time the caller sees the plan. Contention can only widen the gaps
// between clocks, so the best of three attempts is taken.
func TestSessionStagesCoverWall(t *testing.T) {
	batch := workload.MustGenerate(workload.DefaultSpec(32, 0.25))
	best := 0.0
	for attempt := 0; attempt < 3 && best < 0.9; attempt++ {
		sess := newTestSession(t)
		start := time.Now()
		rr, err := sess.Optimize(context.Background(), batch)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if err := rr.Validate(); err != nil {
			t.Fatalf("Validate after the publish: %v", err)
		}
		if rr.PublishTime <= 0 {
			t.Fatalf("PublishTime = %v on a cold run", rr.PublishTime)
		}
		if st := sess.Stats(); st.PublishTime != rr.PublishTime {
			t.Fatalf("session PublishTime %v != the one call's %v", st.PublishTime, rr.PublishTime)
		}
		stages := rr.BuildTime + rr.OptTime + rr.ExtractTime + rr.PublishTime
		if stages > wall {
			t.Fatalf("stages sum to %v, more than the wall %v", stages, wall)
		}
		if cover := float64(stages) / float64(wall); cover > best {
			best = cover
		}
	}
	if best < 0.9 {
		t.Errorf("stage clocks cover %.1f %% of the call, want ≥ 90 %%", 100*best)
	}
}
