package submod

import (
	"cmp"
	"math"
	"slices"
)

// epsCost is the threshold below which an element's additive cost is
// treated as non-positive ("free"): MarginalGreedy appends such elements at
// the end, which can only increase f (f_M is monotone and −c(e) ≥ 0).
const epsCost = 1e-12

// Result is the output of a maximization algorithm.
type Result struct {
	Set        Set
	Value      float64
	Iterations int
	// Pruned counts elements permanently removed by the ratio<1
	// optimization of Section 5.1.
	Pruned int
	// Stale counts stale-bound re-evaluations performed by the lazy
	// drivers: candidates whose upper bound topped the heap and had to be
	// re-priced against the current selection. The first pricing of each
	// candidate is not counted. An eager scan re-evaluates every surviving
	// candidate every round; Stale is the part of that work laziness could
	// not avoid.
	Stale int
	// Reused counts marginals carried exactly across a selection by the
	// dirty-candidate tracking: after adding x, every candidate whose cost
	// paths provably cannot interact with x (InteractionFunction) keeps
	// its marginal without re-evaluation, once per selection survived.
	Reused int
	// Stopped records why the run ended early (StopNone for a complete
	// run): the reason the oracle's Control recorded at a stop check, made
	// before every oracle round, so Set is the deterministic best-so-far
	// selection of the completed rounds.
	Stopped StopReason
	// Checkpoint, set when a lazy driver stopped early, is the resumable
	// round-boundary snapshot: ResumeLazy continues the run from it
	// bit-identically (see checkpoint.go). Nil on complete runs and for the
	// eager reference drivers.
	Checkpoint *Checkpoint
}

// finish is where every driver ends: it fills the chosen set, its value and
// the stop reason — the one the oracle's Control recorded, read once and
// never re-derived from a context after the search. The value of the empty
// set is f(∅) = 0 by normalization, with no oracle call spent on it;
// otherwise f(X) is a memo hit: every selected set was priced when it was
// chosen.
func (res *Result) finish(o *Oracle, x Set) {
	res.Set, res.Stopped = x, o.StopReason()
	if x.Empty() {
		res.Value = 0
		return
	}
	res.Value = o.Eval(x)
}

// positiveCostSplit partitions the universe (or the given subset of it)
// into positive-cost candidates and free (non-positive-cost) elements.
func (d *Decomposition) positiveCostSplit() (cands, free []int) {
	for e := 0; e < d.o.N(); e++ {
		if d.C[e] > epsCost {
			cands = append(cands, e)
		} else {
			free = append(free, e)
		}
	}
	return cands, free
}

// stoppedAtStart is the rule for a run that may not begin: setting up the
// decomposition d (nil for the drivers that use none) was cut off, or a
// stop check made before anything is priced stops it. Such a run returns
// the empty set, its stop reason and no checkpoint; ok is false when the
// run may begin.
func stoppedAtStart(o *Oracle, d *Decomposition) (res Result, ok bool) {
	if (d == nil || !d.truncated) && !o.Interrupted() {
		return Result{}, false
	}
	res.finish(o, Set{})
	return res, true
}

// fresh runs the named lazy driver from its Start checkpoint. Only a
// truncated decomposition stops it before that: a stop at the scan's first
// check leaves the Start checkpoint itself.
func fresh(name string, o *Oracle, d *Decomposition) Result {
	if d != nil && d.truncated {
		res, _ := stoppedAtStart(o, d)
		return res
	}
	return runLazy(o, Start(name, o.N(), d), lazyDrivers[name])
}

// MarginalGreedy is Algorithm 2 of the paper: while some element has
// marginal-benefit to cost ratio f'_M(x,X)/c(x) > 1, add the element with
// the maximum ratio; finally add every element with non-positive cost.
// Elements observed with ratio < 1 are permanently discarded
// (Section 5.1): by submodularity their ratio can only decrease.
//
// The scan is batched-lazy (see lazyRun): candidates are kept in a
// max-heap of stale upper bounds and re-evaluated — in oracle rounds of up
// to lazyChunkSize batched evaluations — only while their bound still tops
// the heap, and marginals of candidates provably untouched by the last
// selection (the oracle function's InteractionFunction, when available)
// are reused without re-evaluation. The selected set is identical to the
// exhaustive-scan reference EagerMarginalGreedy whenever diminishing
// returns hold; Result.{Pruned,Stale,Reused} report how the scan volume
// was spent.
//
// Between rounds the oracle's Control is consulted: a cancelled context or
// an exhausted call budget stops the scan and returns the best-so-far
// greedy prefix (Result.Stopped says why). A truncated decomposition —
// budget spent before the costs existed — yields the empty set.
func MarginalGreedy(d *Decomposition) Result {
	return fresh("MarginalGreedy", d.o, d)
}

// LazyMarginalGreedy is the Section 5.2 variant: the same lazy heap as
// MarginalGreedy but with sequential (chunk size 1) re-evaluation, which
// minimizes the number of oracle evaluations at the price of giving a
// concurrent oracle nothing to batch. It returns exactly the same set as
// MarginalGreedy and EagerMarginalGreedy under diminishing returns.
func LazyMarginalGreedy(d *Decomposition) Result {
	return fresh("LazyMarginalGreedy", d.o, d)
}

// EagerMarginalGreedy is the exhaustive-scan reference implementation of
// Algorithm 2: every round re-evaluates the marginal ratio of every
// surviving candidate in one batched oracle call and picks the maximum
// with the strict-> first-maximum tie-break. It is the oracle-hungry
// baseline the lazy drivers are verified against (they must select
// bit-identical sets) and the ablation benchmarks measure.
func EagerMarginalGreedy(d *Decomposition) Result {
	res, stopped := stoppedAtStart(d.o, d)
	if stopped {
		return res
	}
	x := Set{}
	y, free := d.positiveCostSplit()
	var sets []Set
	for len(y) > 0 && !d.o.Interrupted() {
		res.Iterations++
		// Evaluate the marginal ratio of every remaining element in one
		// batched (possibly concurrent) oracle call, then pick the winner
		// with the same strict-> tie-break as a sequential scan.
		sets = sets[:0]
		for _, e := range y {
			sets = append(sets, x.With(e))
		}
		vals, ok := d.o.EvalBatch(sets)
		if !ok {
			break
		}
		cur := d.o.Eval(x)
		bestE, bestR, bestV := -1, math.Inf(-1), 0.0
		keep := y[:0]
		for i, e := range y {
			r := d.ratioFrom(vals[i], cur, e)
			if r < 1 {
				res.Pruned++
				continue // permanently pruned
			}
			keep = append(keep, e)
			if r > bestR {
				bestR, bestE, bestV = r, e, vals[i]
			}
		}
		y = keep
		if bestE < 0 || bestR <= 1 {
			break
		}
		x = x.With(bestE)
		y = remove(y, bestE)
		d.o.progress("EagerMarginalGreedy", res.Iterations, x.Len(), len(y), bestV)
	}
	if d.o.StopReason() == StopNone {
		x = addFree("EagerMarginalGreedy", d, x, free, &res)
	}
	res.finish(d.o, x)
	return res
}

// addFree appends the non-positive-cost elements. Under the paper's
// submodularity assumption each such element can only raise f (f_M is
// monotone and −c(e) ≥ 0), so the final set — and hence f — is the same in
// any insertion order. Because a real bestCost oracle may violate the
// assumption slightly, elements are added greedily by marginal gain and
// skipped once their marginal gain turns negative; both choices are no-ops
// whenever the assumption holds. Budget checks run between passes, like
// the main rounds; a stop records its reason on res and — for the lazy
// drivers — a MainDone checkpoint (the remaining free elements are
// recomputed on resume from the costs minus the selection, so the snapshot
// needs no extra state).
func addFree(name string, d *Decomposition, x Set, free []int, res *Result) Set {
	remaining := append([]int(nil), free...)
	var sets []Set
	for len(remaining) > 0 {
		if d.o.Interrupted() {
			res.Checkpoint = captureFree(name, x, d, res)
			return x
		}
		// f(X), then the candidates: one batched oracle call a pass.
		sets = append(sets[:0], x)
		for _, e := range remaining {
			sets = append(sets, x.With(e))
		}
		vals, ok := d.o.EvalBatch(sets)
		if !ok {
			res.Checkpoint = captureFree(name, x, d, res)
			return x
		}
		bestE, bestGain := -1, math.Inf(-1)
		for i, e := range remaining {
			if gain := vals[i+1] - vals[0]; gain > bestGain {
				bestGain, bestE = gain, e
			}
		}
		if bestGain < 0 {
			break
		}
		x = x.With(bestE)
		remaining = remove(remaining, bestE)
	}
	return x
}

// Greedy is the benefit-greedy of Roy et al. [Algorithm 1]: at each step
// add the element that maximizes f(X∪{x}) as long as f strictly improves.
// Like MarginalGreedy it runs on the batched-lazy heap (threshold 0,
// marginal gain instead of ratio) and selects exactly the set the
// exhaustive-scan EagerGreedy selects under diminishing returns. Budgets
// and cancellation are checked between oracle rounds.
func Greedy(o *Oracle) Result {
	return fresh("Greedy", o, nil)
}

// LazyGreedy is Greedy accelerated with the Minoux heap under the
// supermodularity ("monotonicity heuristic") assumption on the cost, i.e.
// submodularity of the benefit f: the same lazy driver with sequential
// (chunk size 1) re-evaluation. It returns the same set as Greedy when the
// assumption holds. Budgets are checked before every oracle round.
func LazyGreedy(o *Oracle) Result {
	return fresh("LazyGreedy", o, nil)
}

// VolcanoSH is the keep-scan of Volcano-SH, the post-optimization baseline
// of Roy et al. (SIGMOD 2000): it tries each element of order once, in
// order, against the set kept so far, and keeps it when f rises. Each try
// is one oracle round; the caller chooses the order (core: the shareable
// nodes the plan of the empty set computes at least twice). Budgets and
// cancellation are checked before every try, so a stopped scan returns the
// set kept so far.
func VolcanoSH(o *Oracle, order []int) Result {
	var res Result
	x, cur := Set{}, 0.0 // f(∅) = 0 by normalization
	for i, e := range order {
		if o.Interrupted() {
			break
		}
		res.Iterations++
		v, ok := o.eval(x.With(e))
		if !ok {
			break
		}
		if v > cur {
			x, cur = x.With(e), v
		}
		o.progress("Volcano-SH", res.Iterations, x.Len(), len(order)-i-1, cur)
	}
	res.finish(o, x)
	return res
}

// EagerGreedy is the exhaustive-scan reference implementation of the
// benefit greedy: every round re-evaluates f(X∪{e}) for every remaining
// element in one batched oracle call. The lazy drivers are verified to
// select bit-identical sets against it.
func EagerGreedy(o *Oracle) Result {
	res, stopped := stoppedAtStart(o, nil)
	if stopped {
		return res
	}
	x := Set{}
	cur := o.Eval(x)
	y := make([]int, o.N())
	for i := range y {
		y[i] = i
	}
	var sets []Set
	for len(y) > 0 && !o.Interrupted() {
		res.Iterations++
		sets = sets[:0]
		for _, e := range y {
			sets = append(sets, x.With(e))
		}
		vals, ok := o.EvalBatch(sets) // one batched (possibly concurrent) scan
		if !ok {
			break
		}
		bestE, bestV := -1, math.Inf(-1)
		for i, e := range y {
			if v := vals[i]; v > bestV {
				bestV, bestE = v, e
			}
		}
		if bestE < 0 || bestV <= cur {
			break
		}
		x = x.With(bestE)
		cur = bestV
		y = remove(y, bestE)
		o.progress("EagerGreedy", res.Iterations, x.Len(), len(y), cur)
	}
	res.finish(o, x)
	return res
}

// Exhaustive returns the exact optimum by enumerating all subsets; the
// universe must have at most 25 elements. An exhausted budget stops the
// enumeration at the best subset seen so far.
func Exhaustive(o *Oracle) Result {
	n := o.N()
	if n > 25 {
		panic("submod: exhaustive search limited to 25 elements")
	}
	res, stopped := stoppedAtStart(o, nil)
	if stopped {
		return res
	}
	best := Set{}
	bestV := o.Eval(best)
	for mask := uint64(1); mask < uint64(1)<<uint(n) && !o.Interrupted(); mask++ {
		s := Set{}
		for e := 0; e < n; e++ {
			if mask&(1<<uint(e)) != 0 {
				s.Add(e)
			}
		}
		if v := o.Eval(s); v > bestV {
			bestV, best = v, s
		}
	}
	res.finish(o, best)
	return res
}

// MarginalGreedyK is the cardinality-constrained variant of Section 5.3:
// MarginalGreedy that stops after at most k selections (free elements
// consume budget too, cheapest cost first). Oracle budgets are checked
// between rounds like the unconstrained variant.
func MarginalGreedyK(d *Decomposition, k int) Result {
	return marginalGreedyKOn(d, k, nil)
}

// MarginalGreedyKOn runs MarginalGreedyK considering only the elements of
// universe (original ids); used to verify the Theorem 4 universe
// reduction.
func MarginalGreedyKOn(d *Decomposition, k int, universe []int) Result {
	if universe == nil {
		universe = []int{}
	}
	return marginalGreedyKOn(d, k, universe)
}

// marginalGreedyKOn is the shared body: a nil universe means all elements.
func marginalGreedyKOn(d *Decomposition, k int, universe []int) Result {
	res, stopped := stoppedAtStart(d.o, d)
	if stopped {
		return res
	}
	if universe == nil {
		universe = make([]int, d.o.N())
		for i := range universe {
			universe[i] = i
		}
	}
	x := Set{}
	var y, free []int
	for _, e := range universe {
		if d.C[e] > epsCost {
			y = append(y, e)
		} else {
			free = append(free, e)
		}
	}
	for len(y) > 0 && x.Len() < k && !d.o.Interrupted() {
		res.Iterations++
		bestE, bestR := -1, math.Inf(-1)
		keep := y[:0]
		for _, e := range y {
			r := d.ratio(e, x)
			if r < 1 {
				res.Pruned++
				continue
			}
			keep = append(keep, e)
			if r > bestR {
				bestR, bestE = r, e
			}
		}
		y = keep
		if bestE < 0 || bestR <= 1 {
			break
		}
		x = x.With(bestE)
		y = remove(y, bestE)
		d.o.progress("MarginalGreedyK", res.Iterations, x.Len(), len(y), d.o.Eval(x))
	}
	if d.o.StopReason() == StopNone {
		sortByCost(free, d.C)
		cur := d.o.Eval(x) // cached across the loop; updated only when x grows
		for _, e := range free {
			if x.Len() >= k || d.o.Interrupted() {
				break
			}
			if v := d.o.Eval(x.With(e)); v >= cur {
				x = x.With(e)
				cur = v
			}
		}
	}
	res.finish(d.o, x)
	return res
}

// ReduceUniverse implements the Theorem 4 preprocessing for a cardinality
// constraint k: order the positive-cost elements by
// f'_M(e, U∖{e})/c(e) descending and keep those with
// f_M({e})/c(e) ≥ the k-th last-marginal ratio. Running MarginalGreedyK on
// the reduced universe yields the same output as on the full universe.
// Free (non-positive-cost) elements are always kept. When k ≥ n the full
// universe is returned without any oracle calls (the Case 1 observation of
// the proof: the check would be pure waste), and so, when k ≤ 0, are the
// free elements alone: no positive-cost element can be chosen.
func ReduceUniverse(d *Decomposition, k int) []int {
	n := d.o.N()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if k >= n {
		return all
	}
	var pos, free []int
	for e := 0; e < n; e++ {
		if d.C[e] > epsCost {
			pos = append(pos, e)
		} else {
			free = append(free, e)
		}
	}
	if len(pos) <= k {
		return all
	}
	if k <= 0 {
		return free
	}
	u := d.o.Universe()
	fu := d.o.Eval(u)
	lastRatio := make(map[int]float64, len(pos))
	for _, e := range pos {
		fm := fu - d.o.Eval(u.Without(e)) + d.C[e] // f'_M(e, U∖{e})
		lastRatio[e] = fm / d.C[e]
	}
	ordered := append([]int(nil), pos...)
	sortByRatioDesc(ordered, lastRatio)
	threshold := lastRatio[ordered[k-1]]
	var out []int
	for _, e := range pos {
		fmSingle := d.o.Eval(NewSet(e)) + d.C[e] // f_M({e})
		if fmSingle/d.C[e] >= threshold {
			out = append(out, e)
		}
	}
	out = append(out, free...)
	slices.Sort(out)
	return out
}

func remove(xs []int, v int) []int {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// sortByCost orders elements by cost ascending, ties by element ascending.
func sortByCost(xs []int, c []float64) {
	slices.SortFunc(xs, func(a, b int) int {
		return cmp.Or(cmp.Compare(c[a], c[b]), cmp.Compare(a, b))
	})
}

// sortByRatioDesc orders elements by ratio descending, ties by element
// ascending.
func sortByRatioDesc(xs []int, r map[int]float64) {
	slices.SortFunc(xs, func(a, b int) int {
		return cmp.Or(cmp.Compare(r[b], r[a]), cmp.Compare(a, b))
	})
}
