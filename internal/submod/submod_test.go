package submod

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetOps(t *testing.T) {
	s := NewSet(3, 1, 2)
	if s.Len() != 3 {
		t.Fatalf("NewSet: %v", s)
	}
	w := s.With(5)
	if !w.Contains(5) || s.Contains(5) {
		t.Error("With must copy")
	}
	wo := s.Without(1)
	if wo.Contains(1) || !s.Contains(1) {
		t.Error("Without must copy")
	}
	sorted := s.Sorted()
	if sorted[0] != 1 || sorted[1] != 2 || sorted[2] != 3 {
		t.Errorf("Sorted: %v", sorted)
	}
	if !s.Equal(NewSet(1, 2, 3)) || s.Equal(NewSet(1, 2)) || s.Equal(NewSet(1, 2, 4)) {
		t.Error("Equal broken")
	}
}

func TestSetKeyDistinguishes(t *testing.T) {
	seen := map[uint64]string{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := Set{}
		for e := 0; e < 12; e++ {
			if r.Intn(2) == 0 {
				s.Add(e)
			}
		}
		k := s.Key()
		repr := ""
		for _, e := range s.Sorted() {
			repr += string(rune('a' + e))
		}
		if prev, ok := seen[k]; ok && prev != repr {
			t.Fatalf("key collision: %q vs %q", prev, repr)
		}
		seen[k] = repr
	}
}

func TestOracleMemoizes(t *testing.T) {
	c := RandomCoverage(1, 8, 30, 4, 1.0, 0.5)
	o := NewOracle(c)
	s := NewSet(1, 2, 3)
	v1 := o.Eval(s)
	v2 := o.Eval(s)
	if v1 != v2 {
		t.Error("oracle not deterministic")
	}
	if o.Calls != 1 {
		t.Errorf("oracle calls = %d, want 1 (memoized)", o.Calls)
	}
	if o.N() != 8 {
		t.Errorf("N = %d", o.N())
	}
	if o.Universe().Len() != 8 {
		t.Error("Universe size")
	}
}

// randomInstance builds a random normalized, non-monotone submodular
// function (weighted coverage minus modular costs).
func randomInstance(seed int64, n int) *Oracle {
	c := RandomCoverage(seed, n, 3*n, 3, 1.0, 1.2)
	return NewOracle(c)
}

func TestCoverageNormalized(t *testing.T) {
	o := randomInstance(3, 10)
	if o.Eval(Set{}) != 0 {
		t.Errorf("f(∅) = %v, want 0", o.Eval(Set{}))
	}
}

// TestCoverageSubmodularQuick verifies the defining inequality
// f(A∪{e}) − f(A) ≥ f(B∪{e}) − f(B) for random A ⊆ B, e ∉ B.
func TestCoverageSubmodularQuick(t *testing.T) {
	o := randomInstance(4, 12)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		a, b := Set{}, Set{}
		for e := 0; e < o.N(); e++ {
			switch r.Intn(3) {
			case 0:
				a.Add(e)
				b.Add(e)
			case 1:
				b.Add(e)
			}
		}
		var outside []int
		for e := 0; e < o.N(); e++ {
			if !b.Contains(e) {
				outside = append(outside, e)
			}
		}
		if len(outside) == 0 {
			continue
		}
		e := outside[r.Intn(len(outside))]
		dA := o.Eval(a.With(e)) - o.Eval(a)
		dB := o.Eval(b.With(e)) - o.Eval(b)
		if dA < dB-1e-9 {
			t.Fatalf("submodularity violated: f'(%d,A)=%v < f'(%d,B)=%v", e, dA, e, dB)
		}
	}
}

// fm is the monotone part of the decomposition, f*_M(S) = f(S) + c*(S).
func fm(d *Decomposition, s Set) float64 {
	v := d.o.Eval(s)
	s.ForEach(func(e int) { v += d.C[e] })
	return v
}

func TestDecomposeStarIdentity(t *testing.T) {
	// f(S) = f*_M(S) − c*(S) must hold exactly for every S.
	o := randomInstance(5, 10)
	d := DecomposeStar(o)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := Set{}
		for e := 0; e < o.N(); e++ {
			if r.Intn(2) == 0 {
				s.Add(e)
			}
		}
		cS := 0.0
		s.ForEach(func(e int) { cS += d.C[e] })
		if math.Abs(fm(d, s)-cS-d.o.Eval(s)) > 1e-9 {
			t.Fatalf("decomposition identity broken at %v", s.Sorted())
		}
	}
}

func TestDecomposeStarMonotone(t *testing.T) {
	// Proposition 1: f*_M is monotone — adding any element never lowers it.
	o := randomInstance(6, 10)
	d := DecomposeStar(o)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		s := Set{}
		for e := 0; e < o.N(); e++ {
			if r.Intn(2) == 0 {
				s.Add(e)
			}
		}
		e := r.Intn(o.N())
		if s.Contains(e) {
			continue
		}
		if fm(d, s.With(e)) < fm(d, s)-1e-9 {
			t.Fatalf("f*_M not monotone: adding %d to %v lowers it", e, s.Sorted())
		}
	}
}

func TestDecomposeStarUsesNPlusOneCalls(t *testing.T) {
	o := randomInstance(9, 15)
	DecomposeStar(o)
	if o.Calls != o.N()+1 {
		t.Errorf("DecomposeStar used %d oracle calls, want n+1=%d", o.Calls, o.N()+1)
	}
}

func TestMarginalFMAndRatio(t *testing.T) {
	o := randomInstance(10, 8)
	d := DecomposeStar(o)
	s := NewSet(0, 1)
	e := 3
	want := o.Eval(s.With(e)) - o.Eval(s) + d.C[e] // f'_M(e, S)
	if d.C[e] > 0 {
		if math.Abs(d.ratio(e, s)-want/d.C[e]) > 1e-12 {
			t.Error("Ratio formula")
		}
	}
}

func TestLazyEqualsEagerMarginalGreedy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		o1 := randomInstance(seed, 12)
		o2 := randomInstance(seed, 12)
		eager := MarginalGreedy(DecomposeStar(o1))
		lazy := LazyMarginalGreedy(DecomposeStar(o2))
		if !eager.Set.Equal(lazy.Set) {
			t.Fatalf("seed %d: eager %v != lazy %v", seed, eager.Set.Sorted(), lazy.Set.Sorted())
		}
		if math.Abs(eager.Value-lazy.Value) > 1e-9 {
			t.Fatalf("seed %d: values differ: %v vs %v", seed, eager.Value, lazy.Value)
		}
	}
}

func TestLazyEqualsEagerGreedy(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		g := Greedy(randomInstance(seed, 12))
		lg := LazyGreedy(randomInstance(seed, 12))
		if !g.Set.Equal(lg.Set) {
			t.Fatalf("seed %d: greedy %v != lazy %v", seed, g.Set.Sorted(), lg.Set.Sorted())
		}
	}
}

func TestGreedyNeverHurts(t *testing.T) {
	// Both greedy algorithms only take improving steps, so their value is
	// at least f(∅) = 0.
	for seed := int64(0); seed < 20; seed++ {
		if v := Greedy(randomInstance(seed, 10)).Value; v < 0 {
			t.Fatalf("seed %d: greedy value %v < 0", seed, v)
		}
		if v := MarginalGreedy(DecomposeStar(randomInstance(seed, 10))).Value; v < -1e-9 {
			t.Fatalf("seed %d: marginal greedy value %v < 0", seed, v)
		}
	}
}

func TestExhaustiveIsOptimal(t *testing.T) {
	// Exhaustive dominates both heuristics on every small instance.
	for seed := int64(0); seed < 15; seed++ {
		o := randomInstance(seed, 10)
		opt := Exhaustive(o)
		g := Greedy(o)
		mg := MarginalGreedy(DecomposeStar(o))
		if g.Value > opt.Value+1e-9 || mg.Value > opt.Value+1e-9 {
			t.Fatalf("seed %d: heuristic beats exhaustive: g=%v mg=%v opt=%v",
				seed, g.Value, mg.Value, opt.Value)
		}
	}
}

func TestExhaustivePanicsOnLargeUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exhaustive should panic for n > 25")
		}
	}()
	Exhaustive(NewOracle(RandomCoverage(1, 26, 60, 3, 1, 1)))
}

func TestTheoremOneBoundOnPlantedInstances(t *testing.T) {
	// The Theorem 1 guarantee must hold on the hardness family whenever
	// the explicit decomposition is used.
	for _, gamma := range []float64{0.5, 1, 2, 4, 8} {
		for seed := int64(0); seed < 10; seed++ {
			p := PlantedInstance(seed, 60, 4, 8, 20, gamma)
			o := NewOracle(p)
			d := NewDecomposition(o, p.ExplicitCosts())
			mg := MarginalGreedy(d)
			opt := Exhaustive(o)
			bound := TheoremOneBound(opt.Value, opt.Value/gamma)
			if mg.Value < bound-1e-9 {
				t.Errorf("γ=%v seed=%d: MG %.4f below bound %.4f (opt %.4f)",
					gamma, seed, mg.Value, bound, opt.Value)
			}
		}
	}
}

func TestPlantedInstanceOptimumIsOne(t *testing.T) {
	p := PlantedInstance(3, 60, 4, 8, 20, 2)
	o := NewOracle(p)
	// The planted cover (the first l sets) achieves exactly f = 1.
	planted := NewSet(0, 1, 2, 3)
	if v := o.Eval(planted); math.Abs(v-1) > 1e-9 {
		t.Errorf("planted cover value %v, want 1", v)
	}
	if opt := Exhaustive(o); opt.Value < 1-1e-9 {
		t.Errorf("optimum %v below planted value", opt.Value)
	}
}

func TestTheoremOneBoundFormula(t *testing.T) {
	// Bound → f as γ → ∞ and → 0 as γ → 0; degenerate inputs give 0.
	if TheoremOneBound(0, 1) != 0 || TheoremOneBound(1, 0) != 0 {
		t.Error("degenerate bound should be 0")
	}
	prev := -1.0
	for _, gamma := range []float64{0.1, 1, 10, 100, 1000} {
		b := TheoremOneBound(1, 1/gamma)
		if b < prev {
			t.Errorf("bound not increasing in γ: %v after %v", b, prev)
		}
		prev = b
	}
	if prev < 0.99 {
		t.Errorf("bound should approach f(Θ)=1 for large γ, got %v", prev)
	}
}

func TestUniverseReductionPreservesAnswer(t *testing.T) {
	// Theorem 4: MarginalGreedyK on the reduced universe returns exactly
	// the same set as on the full universe.
	for seed := int64(0); seed < 30; seed++ {
		o := randomInstance(seed, 14)
		d := DecomposeStar(o)
		for _, k := range []int{1, 2, 4, 8} {
			full := MarginalGreedyK(d, k)
			reduced := ReduceUniverse(d, k)
			onReduced := MarginalGreedyKOn(d, k, reduced)
			if !full.Set.Equal(onReduced.Set) {
				t.Fatalf("seed %d k=%d: full %v != reduced %v (universe %v)",
					seed, k, full.Set.Sorted(), onReduced.Set.Sorted(), reduced)
			}
		}
	}
}

func TestUniverseReductionExplicitCosts(t *testing.T) {
	// With an explicit (non-star) decomposition the reduction can actually
	// prune; the answers must still agree.
	for seed := int64(0); seed < 30; seed++ {
		c := RandomCoverage(seed, 14, 40, 3, 1.0, 1.2)
		o := NewOracle(c)
		d := NewDecomposition(o, c.Costs)
		for _, k := range []int{2, 4} {
			full := MarginalGreedyK(d, k)
			reduced := ReduceUniverse(d, k)
			onReduced := MarginalGreedyKOn(d, k, reduced)
			if !full.Set.Equal(onReduced.Set) {
				t.Fatalf("seed %d k=%d: full %v != reduced %v",
					seed, k, full.Set.Sorted(), onReduced.Set.Sorted())
			}
		}
	}
}

func TestUniverseReductionKGreaterN(t *testing.T) {
	// Case 1 of Theorem 4's proof: k ≥ n must skip the check entirely.
	o := randomInstance(2, 8)
	d := DecomposeStar(o)
	before := o.Calls
	u := ReduceUniverse(d, 8)
	if len(u) != 8 {
		t.Errorf("k=n should keep everything, got %d", len(u))
	}
	if o.Calls != before {
		t.Errorf("k≥n made %d extra oracle calls; should make none", o.Calls-before)
	}
}

func TestCardinalityRespected(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		d := DecomposeStar(randomInstance(seed, 12))
		for _, k := range []int{0, 1, 3} {
			if got := MarginalGreedyK(d, k); got.Set.Len() > k {
				t.Fatalf("seed %d: |X|=%d exceeds k=%d", seed, got.Set.Len(), k)
			}
		}
	}
}

func TestMarginalGreedyKUnbounded(t *testing.T) {
	// With k = n the constrained variant matches the unconstrained one.
	for seed := int64(0); seed < 10; seed++ {
		o1 := randomInstance(seed, 10)
		o2 := randomInstance(seed, 10)
		a := MarginalGreedy(DecomposeStar(o1))
		b := MarginalGreedyK(DecomposeStar(o2), 10)
		if !a.Set.Equal(b.Set) {
			t.Fatalf("seed %d: unconstrained %v != k=n %v", seed, a.Set.Sorted(), b.Set.Sorted())
		}
	}
}

func TestPruningCountsReported(t *testing.T) {
	found := false
	for seed := int64(0); seed < 20 && !found; seed++ {
		o := randomInstance(seed, 12)
		if MarginalGreedy(DecomposeStar(o)).Pruned > 0 {
			found = true
		}
	}
	if !found {
		t.Skip("no instance triggered pruning; acceptable but unusual")
	}
}

func TestQuickCoverageEvalConsistency(t *testing.T) {
	// Eval must be order-independent in its set representation.
	c := RandomCoverage(11, 10, 30, 3, 1, 1)
	f := func(mask uint16) bool {
		s1, s2 := Set{}, Set{}
		for e := 0; e < 10; e++ {
			if mask&(1<<uint(e)) != 0 {
				s1.Add(e)
			}
		}
		for e := 9; e >= 0; e-- {
			if mask&(1<<uint(e)) != 0 {
				s2.Add(e)
			}
		}
		return c.Eval(s1) == c.Eval(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
