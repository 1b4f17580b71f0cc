package submod

// DoubleGreedy is the deterministic double-greedy of Buchbinder et al.
// [FOCS 2012]: a 1/3-approximation (1/2 randomized) for unconstrained
// maximization of NON-NEGATIVE submodular functions. The paper contrasts
// it with MarginalGreedy: mb can be negative, and the obvious repair —
// additively shifting f by a large constant M — both breaks the
// multiplicative guarantee (it becomes relative to f+M, not f) and, as the
// experiments in internal/experiments show, steers the algorithm badly.
// It is included as the baseline the paper argues against.
//
// shift is added to f before running (pass 0 for already non-negative f);
// the returned Result reports the value of the ORIGINAL f on the chosen
// set.
func DoubleGreedy(o *Oracle, shift float64) Result {
	n := o.N()
	x := Set{}        // grows from ∅
	y := o.Universe() // shrinks from U
	res := Result{}
	for e := 0; e < n && !o.Interrupted(); e++ {
		res.Iterations++
		a := (o.Eval(x.With(e)) + shift) - (o.Eval(x) + shift)
		b := (o.Eval(y.Without(e)) + shift) - (o.Eval(y) + shift)
		if a >= b {
			x = x.With(e)
		} else {
			y = y.Without(e)
		}
	}
	// x == y at termination (on an interrupted run x holds the decided
	// prefix).
	res.finish(o, x)
	return res
}

// ShiftToNonNegative returns a shift that makes f(S)+shift ≥ 0 over a
// sampled family of sets (all singletons, the universe, and each
// U∖{e}); for the coverage-style functions used here the minimum is
// attained on such sets. It is deliberately the naive repair the paper
// says is insufficient.
func ShiftToNonNegative(o *Oracle) float64 {
	min := 0.0 // f(∅) = 0
	consider := func(v float64) {
		if v < min {
			min = v
		}
	}
	u := o.Universe()
	consider(o.Eval(u))
	for e := 0; e < o.N(); e++ {
		consider(o.Eval(NewSet(e)))
		consider(o.Eval(u.Without(e)))
	}
	return -min
}
