package submod

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// blockFunc is a separable test function over a universe partitioned into
// fixed-size blocks: f(S) = Σ_b w_b·√|S∩b| − Σ_{e∈S} c_e. Marginals
// depend only on an element's own block, so Interacts is exact — the
// fixture for the dirty-candidate reuse path.
type blockFunc struct {
	n, blockSize int
	weights      []float64 // one per block
	costs        []float64 // one per element
}

func newBlockFunc(seed int64, n, blockSize int) *blockFunc {
	rng := rand.New(rand.NewSource(seed))
	f := &blockFunc{n: n, blockSize: blockSize}
	for b := 0; b < (n+blockSize-1)/blockSize; b++ {
		f.weights = append(f.weights, 1+3*rng.Float64())
	}
	for e := 0; e < n; e++ {
		f.costs = append(f.costs, 0.1+rng.Float64())
	}
	return f
}

func (f *blockFunc) N() int { return f.n }

func (f *blockFunc) Eval(s Set) float64 {
	counts := make([]int, len(f.weights))
	total := 0.0
	s.ForEach(func(e int) {
		counts[e/f.blockSize]++
		total -= f.costs[e]
	})
	for b, c := range counts {
		total += f.weights[b] * math.Sqrt(float64(c))
	}
	return total
}

func (f *blockFunc) Interacts(e, x int) bool { return e/f.blockSize == x/f.blockSize }

func TestLazyDriversMatchEagerReference(t *testing.T) {
	// Every lazy driver must select the set the exhaustive-scan reference
	// selects, on random coverage instances (Minoux bounds only) and on
	// block functions (bounds plus exact interaction reuse).
	for seed := int64(0); seed < 25; seed++ {
		eager := EagerMarginalGreedy(DecomposeStar(randomInstance(seed, 12)))
		for name, run := range map[string]func() Result{
			"MarginalGreedy":     func() Result { return MarginalGreedy(DecomposeStar(randomInstance(seed, 12))) },
			"LazyMarginalGreedy": func() Result { return LazyMarginalGreedy(DecomposeStar(randomInstance(seed, 12))) },
		} {
			if got := run(); !eager.Set.Equal(got.Set) {
				t.Fatalf("seed %d: %s %v != eager %v", seed, name, got.Set.Sorted(), eager.Set.Sorted())
			}
		}
		eg := EagerGreedy(randomInstance(seed, 12))
		if got := Greedy(randomInstance(seed, 12)); !eg.Set.Equal(got.Set) {
			t.Fatalf("seed %d: Greedy %v != eager %v", seed, got.Set.Sorted(), eg.Set.Sorted())
		}
		if got := LazyGreedy(randomInstance(seed, 12)); !eg.Set.Equal(got.Set) {
			t.Fatalf("seed %d: LazyGreedy %v != eager %v", seed, got.Set.Sorted(), eg.Set.Sorted())
		}
	}
}

func TestInteractionReuseMatchesEagerAndReports(t *testing.T) {
	sawReuse := false
	for seed := int64(0); seed < 20; seed++ {
		f := newBlockFunc(seed, 18, 3)
		mk := func() *Decomposition {
			return NewDecomposition(NewOracle(f), f.costs)
		}
		eager := EagerMarginalGreedy(mk())
		lazy := MarginalGreedy(mk())
		if !eager.Set.Equal(lazy.Set) {
			t.Fatalf("seed %d: lazy %v != eager %v", seed, lazy.Set.Sorted(), eager.Set.Sorted())
		}
		if math.Abs(eager.Value-lazy.Value) > 1e-9 {
			t.Fatalf("seed %d: values differ: %v vs %v", seed, eager.Value, lazy.Value)
		}
		if lazy.Reused > 0 {
			sawReuse = true
		}
		if eager.Reused != 0 || eager.Stale != 0 {
			t.Fatalf("seed %d: eager reference reported lazy telemetry %+v", seed, eager)
		}
	}
	if !sawReuse {
		t.Error("no block instance exercised the exact-reuse path (Reused always 0)")
	}
}

func TestLazySpendsFewerOracleCalls(t *testing.T) {
	// The point of laziness: the sequential lazy driver never spends more
	// memoized-distinct oracle calls than the exhaustive scan and spends
	// strictly fewer in aggregate. (The chunked MarginalGreedy driver
	// speculatively refreshes up to lazyChunkSize candidates per round, so
	// on toy universes no larger than the chunk it can tie the eager scan;
	// its savings show on real universes — see the workload benchmarks.)
	eagerTotal, lazyTotal := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		o1, o2 := randomInstance(seed, 14), randomInstance(seed, 14)
		EagerMarginalGreedy(DecomposeStar(o1))
		LazyMarginalGreedy(DecomposeStar(o2))
		if o2.Calls > o1.Calls {
			t.Errorf("seed %d: lazy spent %d calls, eager %d", seed, o2.Calls, o1.Calls)
		}
		eagerTotal += o1.Calls
		lazyTotal += o2.Calls
	}
	if lazyTotal >= eagerTotal {
		t.Errorf("lazy aggregate %d calls, eager %d — no saving", lazyTotal, eagerTotal)
	}
}

func TestLazyChunkSizeDoesNotChangeSelection(t *testing.T) {
	// The chunk width is a pure batching knob: any chunk must produce the
	// selection of the sequential (chunk 1) driver.
	for seed := int64(0); seed < 15; seed++ {
		ref := LazyMarginalGreedy(DecomposeStar(randomInstance(seed, 14)))
		for _, chunk := range []int{2, 5, 64} {
			d := DecomposeStar(randomInstance(seed, 14))
			res := runLazy(d.o, Start("LazyMarginalGreedy", d.o.N(), d), lazyDriver{chunk: chunk, marginal: true})
			if !ref.Set.Equal(res.Set) {
				t.Fatalf("seed %d chunk %d: %v != chunk-1 %v", seed, chunk, res.Set.Sorted(), ref.Set.Sorted())
			}
		}
	}
}

// cancelAfterFunc cancels its context after a fixed number of Eval calls.
type cancelAfterFunc struct {
	inner  Function
	left   int
	cancel context.CancelFunc
}

func (f *cancelAfterFunc) N() int { return f.inner.N() }

func (f *cancelAfterFunc) Eval(s Set) float64 {
	f.left--
	if f.left == 0 {
		f.cancel()
	}
	return f.inner.Eval(s)
}

func TestEvalBatchCommitsCompletedPrefix(t *testing.T) {
	// A mid-batch cancellation must report failure but keep the values it
	// already paid for: the completed prefix lands in the memo and the
	// call counter.
	ctx, cancel := context.WithCancel(context.Background())
	f := &cancelAfterFunc{inner: randomInstance(3, 10).F, left: 2, cancel: cancel}
	o := NewOracle(f)
	o.SetControl(&Control{Ctx: ctx})
	sets := []Set{NewSet(0), NewSet(1), NewSet(2), NewSet(3)}
	vals, ok := o.EvalBatch(sets)
	if ok || vals != nil {
		t.Fatalf("cancelled batch returned ok=%v vals=%v", ok, vals)
	}
	if o.Calls != 2 {
		t.Fatalf("committed %d calls, want the 2 completed before cancellation", o.Calls)
	}
	// The committed prefix is memo-hot: re-evaluating costs nothing.
	for i := 0; i < 2; i++ {
		if got, want := o.Eval(sets[i]), f.inner.Eval(sets[i]); got != want {
			t.Errorf("memoized prefix value %d: %v != %v", i, got, want)
		}
	}
	if o.Calls != 2 {
		t.Errorf("prefix re-reads spent oracle calls: %d", o.Calls)
	}
	if o.StopReason() != StopCancelled {
		t.Errorf("stop reason = %v", o.StopReason())
	}
}

// prefixBatchFunc is a BatchFunction that completes only a prefix of each
// batch, exercising the partial-commit path of Oracle.EvalBatch.
type prefixBatchFunc struct {
	inner Function
	keep  int
}

func (f *prefixBatchFunc) N() int             { return f.inner.N() }
func (f *prefixBatchFunc) Eval(s Set) float64 { return f.inner.Eval(s) }

func (f *prefixBatchFunc) EvalBatch(sets []Set) ([]float64, bool) {
	n := f.keep
	if n > len(sets) {
		n = len(sets)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = f.inner.Eval(sets[i])
	}
	return out, n == len(sets)
}

func TestEvalBatchCommitsBatchFunctionPrefix(t *testing.T) {
	f := &prefixBatchFunc{inner: randomInstance(7, 10).F, keep: 3}
	o := NewOracle(f)
	o.SetControl(&Control{}) // so the abort is classified into a stop reason
	sets := []Set{NewSet(0), NewSet(1), NewSet(2), NewSet(3), NewSet(4)}
	if _, ok := o.EvalBatch(sets); ok {
		t.Fatal("prefix batch reported ok")
	}
	if o.Calls != 3 {
		t.Fatalf("committed %d calls, want 3", o.Calls)
	}
	for i := 0; i < 3; i++ {
		if got, want := o.Eval(sets[i]), f.inner.Eval(sets[i]); got != want {
			t.Errorf("prefix value %d: %v != %v", i, got, want)
		}
	}
	if o.Calls != 3 {
		t.Errorf("prefix re-reads spent oracle calls: %d", o.Calls)
	}
	if o.StopReason() != StopCancelled {
		t.Errorf("stop reason = %v", o.StopReason())
	}
}
