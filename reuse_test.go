package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/logical"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// reuseBatches are the inputs the repeated-batch tests cycle: the paper's
// batches and three generated ones.
func reuseBatches(t testing.TB) map[string]*logical.Batch {
	out := map[string]*logical.Batch{}
	for i := 1; i <= 6; i++ {
		out[fmt.Sprintf("BQ%d", i)] = tpcd.BQ(i)
	}
	for i, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake} {
		spec := workload.DefaultSpec(8, 0.5)
		spec.Shape, spec.Seed = shape, int64(31+i)
		out["gen/"+shape.String()] = workload.MustGenerate(spec)
	}
	return out
}

// outcome is what a caller can observe of one logical run — a plain call, a
// budget-stopped one, one paused at its first or second stop check, or one
// whose yield there failed and that a second call resumed. work is the last
// call's deterministic work; stopped, the stopped first call's, when there
// are two.
type outcome struct {
	materialized []int
	cost         float64
	plan         string
	work         core.Work
	stopped      core.Work
	resumed      bool
}

// checkYield asks for the slot once, at its at-th poll: the first stop check
// is before round 1 (before the decomposition, for the marginal
// strategies). Its Yield gives the slot back unless fail is set.
type checkYield struct {
	at, polls, yields int
	fail              bool
}

func (y *checkYield) PreemptRequested() bool {
	y.polls++
	return y.polls == y.at
}

func (y *checkYield) Yield(context.Context) error {
	y.yields++
	if y.fail {
		return errors.New("no re-grant")
	}
	return nil
}

// runMode drives one logical run of the batch on sess.
func runMode(t *testing.T, sess *Session, batch *logical.Batch, strat Strategy, mode string) outcome {
	t.Helper()
	ctx := context.Background()
	opts := []Option{WithStrategy(strat)}
	var y *checkYield
	switch kind, at, _ := strings.Cut(mode, "@"); kind {
	case "extended":
		opts = append(opts, WithExtendedOps(true))
	case "budgeted":
		opts = append(opts, WithOracleCallBudget(6))
	case "paused", "yield-fails":
		y = &checkYield{at: int(at[0] - '0'), fail: kind == "yield-fails"}
		opts = append(opts, WithYielder(y))
	}
	res, err := sess.Optimize(ctx, batch, opts...)
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	if y != nil && y.fail && y.yields > 0 && res.Stopped() != StopPreempted {
		t.Fatalf("%s %v: a run whose yield failed stopped %v", mode, strat, res.Stopped())
	}
	var stopped core.Work
	resumed := y != nil && y.fail && res.Checkpoint != nil
	if resumed {
		// The scan's first check — after the decomposition's, for the
		// marginal strategies — stops a lazy run on its Start checkpoint:
		// nothing selected, every candidate queued at an infinite bound.
		scanFirst := 1
		if strat == core.MarginalGreedy || strat == core.LazyMarginalGreedy {
			scanFirst = 2
		}
		if y.at == scanFirst {
			st := res.Checkpoint.State
			for _, it := range st.Heap {
				if !math.IsInf(math.Float64frombits(it.BoundBits), 1) {
					t.Fatalf("%s %v: stopped at the scan's first check with a priced candidate: %+v", mode, strat, it)
				}
			}
			if len(st.Selected) != 0 || st.Iterations != 0 || st.Stale != 0 || st.MainDone {
				t.Fatalf("%s %v: stopped at the scan's first check on %+v, not the Start checkpoint", mode, strat, st)
			}
		}
		stopped = res.Telemetry.Work()
		if res, err = sess.Optimize(ctx, batch, WithResume(res.Checkpoint)); err != nil {
			t.Fatalf("%s: resume: %v", mode, err)
		}
	}
	if err := res.Validate(); err != nil {
		t.Fatalf("%s: plan does not validate: %v", mode, err)
	}
	o := outcome{cost: res.Cost, plan: res.Plan.String(), work: res.Telemetry.Work(), stopped: stopped, resumed: resumed}
	for _, g := range res.Materialized {
		o.materialized = append(o.materialized, int(g))
	}
	return o
}

// A hit is indistinguishable from a miss, at the session: the second to
// fourth Optimize of a batch — served the first call's DAG and search space
// and whatever workers the calls before left — equal a fresh session's run
// in chosen set, cost, plan and deterministic work, for every strategy and
// for runs that are extended, budget-stopped, paused at their first or second
// stop check, or stopped there by a failed yield and resumed. A paused run is
// the default run, and a resumed one chooses the default run's set, at its
// cost, with its plan.
func TestRepeatedBatchMatchesFreshSession(t *testing.T) {
	strategies := []Strategy{
		core.Volcano, core.Greedy, core.LazyGreedyStrategy, core.MarginalGreedy,
		core.LazyMarginalGreedy, core.MaterializeAll, core.VolcanoSH,
	}
	for name, batch := range reuseBatches(t) {
		for _, strat := range strategies {
			def := runMode(t, newTestSession(t), batch, strat, "default")
			for _, mode := range []string{"default", "extended", "budgeted", "paused@1", "paused@2", "yield-fails@1", "yield-fails@2"} {
				want := runMode(t, newTestSession(t), batch, strat, mode)
				if strings.HasPrefix(mode, "paused") && !reflect.DeepEqual(want, def) {
					t.Fatalf("%s/%s/%s: a paused run differs from the unpaused one:\n got %v %v %+v\nwant %v %v %+v",
						name, strat, mode, want.materialized, want.cost, want.work, def.materialized, def.cost, def.work)
				}
				if want.resumed && (!slices.Equal(want.materialized, def.materialized) || want.cost != def.cost || want.plan != def.plan) {
					t.Fatalf("%s/%s/%s: the resumed run chose %v at %v, the default run %v at %v",
						name, strat, mode, want.materialized, want.cost, def.materialized, def.cost)
				}
				sess := newTestSession(t)
				for call := 1; call <= 4; call++ {
					if got := runMode(t, sess, batch, strat, mode); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%s: call %d on one session differs from a fresh session's:\n got %v %v %+v\nwant %v %v %+v",
							name, strat, mode, call, got.materialized, got.cost, got.work, want.materialized, want.cost, want.work)
					}
				}
				st := sess.Stats()
				if st.CompiledMisses != 1 || st.CompiledHits != int64(st.Batches)-1 {
					t.Fatalf("%s/%s/%s: %d calls compiled %d times and reused %d", name, strat, mode, st.Batches, st.CompiledMisses, st.CompiledHits)
				}
			}
		}
	}
}

// A repeat reads everything: the second Optimize of a batch on one session
// computes no key, because the first run's caches hold every cost a later
// evaluation reads — its entry terms, the cells priced for a base and those
// plan extraction priced (internal/physical, worker.keeps). Its cost and
// deterministic work are the first run's bit for bit. Every strategy on the
// paper's batches, and MarginalGreedy on generated 32- and 64-query batches,
// at GOMAXPROCS 1, 2 and 4: a cold first run fans out, so what its workers
// stored into the one L1 must be complete too.
func TestRepeatComputesNothing(t *testing.T) {
	strategies := []Strategy{
		core.Volcano, core.Greedy, core.LazyGreedyStrategy, core.MarginalGreedy,
		core.LazyMarginalGreedy, core.MaterializeAll, core.VolcanoSH,
	}
	type input struct {
		name  string
		batch *logical.Batch
		strat Strategy
	}
	var inputs []input
	for i := 1; i <= 6; i++ {
		for _, strat := range strategies {
			inputs = append(inputs, input{fmt.Sprintf("BQ%d/%s", i, strat), tpcd.BQ(i), strat})
		}
	}
	for _, q := range []int{32, 64} {
		inputs = append(inputs, input{fmt.Sprintf("gen%dx0.25/%s", q, MarginalGreedy), workload.MustGenerate(workload.DefaultSpec(q, 0.25)), MarginalGreedy})
	}
	for _, procs := range []int{1, 2, 4} {
		withProcs(t, procs)
		for _, in := range inputs {
			sess := newTestSession(t, WithStrategy(in.strat))
			var runs [2]*RunResult
			for i := range runs {
				rr, err := sess.Optimize(context.Background(), in.batch)
				if err != nil {
					t.Fatalf("p%d %s: call %d: %v", procs, in.name, i+1, err)
				}
				runs[i] = rr
			}
			first, again := runs[0], runs[1]
			if again.Telemetry.ComputedKeys != 0 {
				t.Errorf("p%d %s: the repeat computed %d keys (the first run %d), want 0", procs, in.name, again.Telemetry.ComputedKeys, first.Telemetry.ComputedKeys)
			}
			if again.Cost != first.Cost || again.Telemetry.Work() != first.Telemetry.Work() {
				t.Errorf("p%d %s: the repeat cost %v work %+v, the first run %v %+v", procs, in.name, again.Cost, again.Telemetry.Work(), first.Cost, first.Telemetry.Work())
			}
		}
	}
}

// The stale-L1 trap: one batch, one session, runs alternating between the
// extended and the paper's operator set. They share the DAG, the compiled
// search space and the pooled workers, and must share no cost.
func TestAlternatingOperatorSetsOnOneSession(t *testing.T) {
	withProcs(t, 1)
	for name, batch := range reuseBatches(t) {
		want := map[bool]outcome{}
		for _, ext := range []bool{false, true} {
			mode := "default"
			if ext {
				mode = "extended"
			}
			want[ext] = runMode(t, newTestSession(t), batch, MarginalGreedy, mode)
		}
		if want[false].cost == want[true].cost && name != "BQ1" {
			t.Logf("%s: the operator sets cost the same; the alternation proves less here", name)
		}
		sess := newTestSession(t)
		for call := 0; call < 6; call++ {
			ext := call%2 == 1
			res, err := sess.Optimize(context.Background(), batch, WithExtendedOps(ext))
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost != want[ext].cost || res.Plan.String() != want[ext].plan || res.Telemetry.Work() != want[ext].work {
				t.Fatalf("%s: call %d (extended %t): cost %v work %+v, a fresh session says %v %+v",
					name, call, ext, res.Cost, res.Telemetry.Work(), want[ext].cost, want[ext].work)
			}
		}
		if st := sess.Stats(); st.CompiledMisses != 1 {
			t.Fatalf("%s: the operator flag is not part of the DAG, yet it was built %d times", name, st.CompiledMisses)
		}
	}
}

// Concurrent calls on one session share memos and compiled search spaces
// read-only and must never share a worker: under -race a shared worker is a
// reported race, and without it a wrong cost. Stats conserve.
func TestConcurrentRepeatsShareNothingMutable(t *testing.T) {
	batches := []*logical.Batch{tpcd.BQ(2), tpcd.BQ(5), workload.MustGenerate(workload.DefaultSpec(8, 0.5))}
	want := make([]outcome, len(batches))
	for i, b := range batches {
		want[i] = runMode(t, newTestSession(t), b, MarginalGreedy, "default")
	}
	sess := newTestSession(t)
	const goroutines, calls = 8, 50
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sum SessionStats
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < calls; c++ {
				k := (g + c) % len(batches)
				res, err := sess.Optimize(context.Background(), batches[k])
				if err != nil {
					t.Error(err)
					return
				}
				if res.Cost != want[k].cost || res.Telemetry.Work() != want[k].work || res.Plan.String() != want[k].plan {
					t.Errorf("goroutine %d call %d batch %d: cost %v work %+v, want %v %+v",
						g, c, k, res.Cost, res.Telemetry.Work(), want[k].cost, want[k].work)
					return
				}
				mu.Lock()
				sum.Batches++
				sum.OracleCalls += res.Telemetry.OracleCalls
				sum.BCCalls += res.Telemetry.BCCalls
				sum.CacheHits += res.Telemetry.CacheHits
				sum.SharedHits += res.Telemetry.SharedHits
				sum.ComputedKeys += res.Telemetry.ComputedKeys
				sum.Rounds += res.Telemetry.Rounds
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	st := sess.Stats()
	got := SessionStats{Batches: st.Batches, OracleCalls: st.OracleCalls, BCCalls: st.BCCalls, CacheHits: st.CacheHits,
		SharedHits: st.SharedHits, ComputedKeys: st.ComputedKeys, Rounds: st.Rounds}
	if got != sum || st.Batches != goroutines*calls {
		t.Fatalf("session stats %+v, the %d responses sum to %+v", got, goroutines*calls, sum)
	}
	if st.CompiledHits+st.CompiledMisses != goroutines*calls || st.CompiledMisses < int64(len(batches)) || st.CompiledMisses > int64(len(batches)*goroutines) {
		t.Fatalf("%d hits + %d misses over %d calls on %d batches", st.CompiledHits, st.CompiledMisses, goroutines*calls, len(batches))
	}
	if free := sess.cache.FreeWorkers(); free > runtime.GOMAXPROCS(0) {
		t.Fatalf("%d free workers, GOMAXPROCS is %d", free, runtime.GOMAXPROCS(0))
	}
}

// TestFaultLeavesNoPooledWorker: a run stopped by a panic never publishes,
// so no worker it took — each may be poisoned — comes back to the free list,
// and what the session held before the fault still answers like a cold one.
// A run takes a worker when an evaluation first needs it: a repeat of a held
// batch, which the caches serve, prices everything on one (fanOutKeys), a
// run that has to compute — here the same batch under the other operator
// set — fans out and takes GOMAXPROCS of them, here two.
func TestFaultLeavesNoPooledWorker(t *testing.T) {
	withProcs(t, 2)
	batch := tpcd.BQ(2)
	cold, err := newTestSession(t).Optimize(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	var sess *Session
	for _, tc := range []struct {
		name string
		opts []Option
		took int
	}{
		{"warm repeat", nil, 1},
		{"cold run", []Option{WithExtendedOps(true)}, 2},
	} {
		sess = newTestSession(t)
		if _, err := sess.Optimize(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
		free := sess.cache.FreeWorkers()
		if free == 0 {
			t.Fatal("a clean run left no worker on the free list")
		}
		restore := faultinject.Enable(faultinject.NewSchedule(1,
			faultinject.Rule{Point: faultinject.OracleEval, N: 5, Panic: true}))
		_, err = sess.Optimize(context.Background(), batch, tc.opts...)
		restore()
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: injected panic surfaced as %v", tc.name, err)
		}
		// The faulted run took its workers from the free list while it had
		// any and must not have given one back; a searcher it never got as
		// far as using holds none.
		if got, want := sess.cache.FreeWorkers(), max(0, free-tc.took); got != want {
			t.Fatalf("%s: free list %d → %d across a faulted run that took %d: want %d, a poisoned worker was pooled", tc.name, free, got, tc.took, want)
		}
	}
	// The owner quarantines the session; the next one starts clean and is
	// bit-identical to cold.
	next := newTestSession(t)
	if next.cache.FreeWorkers() != 0 {
		t.Fatal("a new session starts with pooled workers")
	}
	got, err := next.Optimize(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, cold, got)
	if got.Telemetry.Work() != cold.Telemetry.Work() || got.Plan.String() != cold.Plan.String() {
		t.Fatalf("run after a quarantine: work %+v, cold %+v", got.Telemetry.Work(), cold.Telemetry.Work())
	}
	// Even the faulted session — which a pool would have retired — still
	// answers right from what it held: the fault reached no shared state.
	again, err := sess.Optimize(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, cold, again)
}

// TestRepeatAllocBudget: a repeated 32-query batch allocates its result —
// oracle bookkeeping, the plan, the attribution — not a DAG, a search space
// or worker tables (8.1 MB a call when every call rebuilt them; 0.25 MB
// since). It guards the free list against silently emptying and the held
// memos against silently missing.
func TestRepeatAllocBudget(t *testing.T) {
	batch := workload.MustGenerate(workload.DefaultSpec(32, 0.25))
	sess := newTestSession(t)
	ctx := context.Background()
	for i := 0; i < 2; i++ { // build, fill the cost cache, size the workers
		if _, err := sess.Optimize(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := sess.Optimize(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("a repeated 32-query Optimize allocates %.0f kB", perCall/1e3)
	if perCall > 1<<20 {
		t.Fatalf("a repeated 32-query Optimize allocates %.2f MB, budget 1 MB", perCall/1e6)
	}
	st := sess.Stats()
	if st.CompiledMisses != 1 || st.CompiledHits != calls+1 {
		t.Fatalf("%d calls: built %d times, reused %d", calls+2, st.CompiledMisses, st.CompiledHits)
	}
}

// InvalidateCache releases what the session holds for a recurring batch:
// the cost tables, the free workers and the compiled DAGs.
func TestInvalidateCacheDropsCompiledState(t *testing.T) {
	sess := newTestSession(t)
	ctx := context.Background()
	first, err := sess.Optimize(ctx, tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.CompiledNodes != first.Memo().NumExprs() || sess.cache.FreeWorkers() == 0 {
		t.Fatalf("after one call: %d nodes held (memo has %d), %d free workers", st.CompiledNodes, first.Memo().NumExprs(), sess.cache.FreeWorkers())
	}
	sess.InvalidateCache()
	if st := sess.Stats(); st.CompiledNodes != 0 || sess.cache.FreeWorkers() != 0 || sess.CacheEntries() != 0 {
		t.Fatalf("after InvalidateCache: %d nodes, %d free workers, %d cost entries", st.CompiledNodes, sess.cache.FreeWorkers(), sess.CacheEntries())
	}
	again, err := sess.Optimize(ctx, tpcd.BQ(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.Memo() == first.Memo() {
		t.Fatal("the dropped memo came back")
	}
	assertSameResult(t, first, again)
	if st := sess.Stats(); st.CompiledMisses != 2 || st.CompiledHits != 0 {
		t.Fatalf("built %d times, reused %d; want 2 and 0", st.CompiledMisses, st.CompiledHits)
	}
}

// TestInvalidateCacheReleasesHeap: nothing the session held for its
// recurring batches — memos, compiled search spaces, worker tables, cost
// tables — stays reachable from it after InvalidateCache. Live heap is read
// with the session still in hand.
func TestInvalidateCacheReleasesHeap(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	sess := newTestSession(t)
	batches := make([]*logical.Batch, 6)
	for k := range batches {
		spec := workload.DefaultSpec(32, 0.25)
		spec.Seed = int64(200 + k)
		batches[k] = workload.MustGenerate(spec)
	}
	base := live()
	for _, b := range batches {
		if _, err := sess.Optimize(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	held := live() - base
	sess.InvalidateCache()
	after := live()
	left := int64(after) - int64(base)
	t.Logf("six 32-query batches: session holds %.1f MB, %.2f MB after InvalidateCache", float64(held)/1e6, float64(left)/1e6)
	if held < 8<<20 {
		t.Fatalf("session holds only %d bytes for six batches: the test no longer measures anything", held)
	}
	if left > 1<<20 {
		t.Fatalf("%d bytes still reachable after InvalidateCache (held %d before)", left, held)
	}
	runtime.KeepAlive(sess)
}
