// Package submod is a generic library for unconstrained, normalized
// submodular maximization (UNSM) — the abstract problem the paper reduces
// MQO to. The function f : 2^U → R is normalized (f(∅)=0) and may take
// negative values. The central pieces are:
//
//   - the Proposition 1 decomposition f = f*_M − c* with
//     c*(e) = f(U∖{e}) − f(U), shown by the paper to be the best possible
//     decomposition;
//   - the MarginalGreedy algorithm (Algorithm 2) with the Theorem 1
//     guarantee f(X) ≥ [1 − (c(Θ)/f(Θ))·ln(1 + f(Θ)/c(Θ))]·f(Θ);
//   - LazyMarginalGreedy (Section 5.2), the ratio<1 permanent pruning
//     (Section 5.1), the cardinality-constrained variant with Theorem 4
//     universe reduction (Section 5.3);
//   - the classic benefit Greedy of Roy et al. for comparison, and an
//     exhaustive optimizer for small universes;
//   - coverage functions and the Profitted Max Coverage instances used in
//     the Theorem 2 hardness construction, which we reuse to validate the
//     approximation bound empirically.
//
// # Lazy evaluation and incremental marginal maintenance
//
// All four greedy drivers (Greedy, LazyGreedy, MarginalGreedy,
// LazyMarginalGreedy) share one batched-lazy engine (lazyRun): a
// max-heap of per-candidate upper bounds, ordered (bound desc, element
// asc) to mirror the eager scan's first-maximum tie-break. A candidate is
// re-evaluated only while its stale bound still tops the heap — in oracle
// rounds of up to lazyChunkSize batched (possibly concurrent) evaluations
// for Greedy/MarginalGreedy, or one at a time for the sequential Lazy*
// variants. By diminishing returns a bound never understates the true
// marginal, so the element selected when the top is exact is precisely the
// element the exhaustive scan would pick; stale bounds at or below the
// selection threshold are still re-priced before the scan concludes, so a
// mild submodularity violation surfaces exactly as it would eagerly.
//
// On top of the bounds, the drivers maintain marginals incrementally
// across rounds: when the oracle's function also implements
// InteractionFunction, each selection marks only the candidates whose
// cost paths can see the selected node as dirty, and the rest keep their
// marginals as exact — selectable without any re-evaluation. For the MQO
// benefit function this is the share-index test "no query root contains
// both nodes" (physical.Searcher.SharesQueryRoot). Result.{Pruned, Stale,
// Reused} split the scan volume into permanently discarded candidates,
// stale re-evaluations performed, and exact marginals carried across
// selections; the exhaustive-scan references (EagerGreedy,
// EagerMarginalGreedy) remain as the verification baseline the lazy
// drivers are pinned bit-identical against.
package submod

import (
	"math"
	"math/bits"
)

// Set is a subset of the universe, represented as a bitset over element
// indexes. The zero value is the empty set. With/Without return modified
// copies (the functional style the algorithms use); Add mutates in place.
type Set struct {
	words []uint64
}

// NewSet builds a set from element indexes.
func NewSet(elems ...int) Set {
	var s Set
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Add inserts e, growing the bitset as needed.
func (s *Set) Add(e int) {
	w := e >> 6
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
	s.words[w] |= 1 << uint(e&63)
}

// Remove deletes e in place.
func (s *Set) Remove(e int) {
	if w := e >> 6; w < len(s.words) {
		s.words[w] &^= 1 << uint(e&63)
	}
}

// Contains reports membership.
func (s Set) Contains(e int) bool {
	w := e >> 6
	return w < len(s.words) && s.words[w]&(1<<uint(e&63)) != 0
}

// Len returns the number of elements.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	if len(s.words) == 0 {
		return Set{}
	}
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// With returns a copy with e added.
func (s Set) With(e int) Set {
	n := len(s.words)
	if w := e>>6 + 1; w > n {
		n = w
	}
	words := make([]uint64, n)
	copy(words, s.words)
	words[e>>6] |= 1 << uint(e&63)
	return Set{words: words}
}

// Without returns a copy with e removed.
func (s Set) Without(e int) Set {
	out := s.Clone()
	out.Remove(e)
	return out
}

// ForEach calls fn for every element in increasing order.
func (s Set) ForEach(fn func(e int)) {
	for wi, w := range s.words {
		for w != 0 {
			fn(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Sorted returns the elements in increasing order.
func (s Set) Sorted() []int {
	out := make([]int, 0, s.Len())
	for wi, w := range s.words {
		for w != 0 {
			out = append(out, wi<<6+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return out
}

// Equal reports set equality (trailing zero words are insignificant).
func (s Set) Equal(o Set) bool {
	a, b := s.words, o.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for _, w := range b[len(a):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Key renders the set canonically for memoization: FNV-1a over the elements
// in increasing order.
func (s Set) Key() uint64 {
	var h uint64 = 1469598103934665603
	for wi, w := range s.words {
		for w != 0 {
			v := uint64(wi<<6 + bits.TrailingZeros64(w))
			w &= w - 1
			for i := 0; i < 8; i++ {
				h ^= (v >> uint(8*i)) & 0xff
				h *= 1099511628211
			}
		}
	}
	return h
}

// Function is a set function over a universe {0, …, N()-1}.
type Function interface {
	// N returns the universe size.
	N() int
	// Eval returns f(S).
	Eval(s Set) float64
}

// BatchFunction is an optional Function extension: EvalBatch returns
// f(S) for every set and true, and may evaluate the sets concurrently.
// Results must be bit-identical to calling Eval on each set —
// implementations achieve this by keeping every single evaluation
// sequential and only running distinct evaluations in parallel. When the
// evaluation context is cancelled mid-batch, implementations return
// (prefix, false) where prefix holds the completed leading results in
// input order (possibly empty): every value present is exact and may be
// committed; positions past the prefix were not evaluated.
type BatchFunction interface {
	Function
	EvalBatch(sets []Set) ([]float64, bool)
}

// InteractionFunction is an optional Function extension carrying the
// structural independence the dirty-candidate lazy drivers exploit:
// Interacts(e, x) reports whether adding x to the current set can change
// e's marginal. The contract is exact: when Interacts(e, x) is false, then
// for every set S with e, x ∉ S,
//
//	f(S∪{e}) − f(S) = f(S∪{x}∪{e}) − f(S∪{x})
//
// as real numbers. (Floating-point evaluation of the two sides may differ
// in the last units of precision; callers that reuse marginals accept
// that rounding, and the parity suites pin that it never changes a
// selection on the covered workloads.) For the MQO benefit function the
// test is "no query root has both nodes in its cone": cost changes
// propagate only upward from a materialized node, so candidates in
// disjoint root cones can never see each other (see
// physical.Searcher.SharesQueryRoot). Implementations must be safe for
// concurrent readers.
type InteractionFunction interface {
	Function
	Interacts(e, x int) bool
}

// MemoL2 is an optional cross-run store of memoized f(S) values, keyed by
// Set.Key. Because f is a pure function of the search space it was built
// over, a value computed by any earlier run over the same space is exactly
// the value this run would compute — so an L2 hit skips the oracle call
// entirely without changing any result. The owner is responsible for
// namespacing: an L2 handed to an Oracle must only ever serve values
// computed for the same function (repro wires it to the session's
// SharedCache under the search-space fingerprint). Implementations must be
// safe for concurrent use by multiple oracles.
type MemoL2 interface {
	Get(key uint64) (float64, bool)
	Put(key uint64, v float64)
}

// Oracle wraps a Function with memoization and an evaluation counter, so
// algorithms can be compared by the number of (potentially expensive)
// oracle calls — in MQO each call is one bestCost optimization. An
// optional Control (SetControl) bounds a run by context cancellation, an
// oracle-call budget and a preemption poll, and records why it stopped;
// the algorithms check Interrupted between rounds and stop with a
// deterministic best-so-far set.
//
// An optional L2 (set before the run starts) serves values memoized by
// earlier runs over the same function: a hit fills the run memo without
// counting an oracle call (L2Hits counts them instead), and every freshly
// evaluated value is published back. Values are pure, so an L2 changes
// only the Calls accounting — never a selected set or a cost.
type Oracle struct {
	F     Function
	Calls int
	// L2 is the optional cross-run value store; nil means every distinct
	// set costs a real oracle call.
	L2 MemoL2
	// L2Hits counts distinct sets served from the L2 instead of the
	// function — the warm-start savings of this run.
	L2Hits int

	ctrl *Control
	memo map[uint64]float64
}

// NewOracle wraps f.
func NewOracle(f Function) *Oracle {
	return &Oracle{F: f, memo: map[uint64]float64{}}
}

// Eval returns f(S), memoized. An evaluation the function reports as
// faulted (Faulter) stops the run with StopPanic and returns 0 — as does
// every evaluation after it: the function is not called again.
func (o *Oracle) Eval(s Set) float64 {
	v, _ := o.eval(s)
	return v
}

// eval is Eval reporting whether the value is f(S): ok is false once the
// function has faulted.
func (o *Oracle) eval(s Set) (float64, bool) {
	k := s.Key()
	if v, ok := o.memo[k]; ok {
		return v, true
	}
	if o.L2 != nil {
		if v, ok := o.L2.Get(k); ok {
			o.L2Hits++
			o.memo[k] = v
			return v, true
		}
	}
	if o.Fault() != nil {
		return 0, false
	}
	v := o.F.Eval(s)
	if o.faulted() {
		return 0, false
	}
	o.commit(k, v)
	return v, true
}

// commit records one evaluation the function made: the call, the run memo
// and the cross-run store.
func (o *Oracle) commit(k uint64, v float64) {
	o.Calls++
	o.memo[k] = v
	if o.L2 != nil {
		o.L2.Put(k, v)
	}
}

// EvalBatch returns f(S) for every set, memoized, and true. Sets not in
// the memo are evaluated together — concurrently when the underlying
// function supports it — so one greedy round costs one batched oracle
// call. The results (and the memo and call counter afterwards) are
// identical to evaluating each set with Eval in order. When the run's
// context is cancelled mid-batch, EvalBatch returns (nil, false) but the
// completed prefix of the interrupted batch is committed to the memo (and
// the call counter) first: every such value is an exact, deterministic
// f(S), so committing it can never change a later result — it only spares
// a budget-interrupted round from discarding work it already paid for.
func (o *Oracle) EvalBatch(sets []Set) ([]float64, bool) {
	out := make([]float64, len(sets))
	keys := make([]uint64, len(sets))
	var missIdx []int
	seen := map[uint64]bool{}
	for i, s := range sets {
		k := s.Key()
		keys[i] = k
		if v, ok := o.memo[k]; ok {
			out[i] = v
			continue
		}
		if seen[k] {
			continue
		}
		if o.L2 != nil {
			if v, ok := o.L2.Get(k); ok {
				o.L2Hits++
				o.memo[k] = v
				out[i] = v
				continue
			}
		}
		seen[k] = true
		missIdx = append(missIdx, i)
	}
	if len(missIdx) > 0 {
		if bf, ok := o.F.(BatchFunction); ok {
			miss := make([]Set, len(missIdx))
			for j, i := range missIdx {
				miss[j] = sets[i]
			}
			vals, ok := bf.EvalBatch(miss)
			// Commit whatever completed — the whole batch, or the leading
			// prefix of an interrupted one.
			for j := 0; j < len(vals) && j < len(missIdx); j++ {
				o.commit(keys[missIdx[j]], vals[j])
			}
			if !ok {
				o.markCancelled()
				return nil, false
			}
		} else {
			for _, i := range missIdx {
				if o.ctxCancelled() {
					return nil, false
				}
				o.commit(keys[i], o.F.Eval(sets[i]))
			}
		}
		// Fill every position (duplicates included) from the memo.
		for i := range sets {
			out[i] = o.memo[keys[i]]
		}
	}
	return out, true
}

// N returns the universe size.
func (o *Oracle) N() int { return o.F.N() }

// Universe returns the full set.
func (o *Oracle) Universe() Set {
	n := o.N()
	if n == 0 {
		return Set{}
	}
	words := make([]uint64, (n+63)/64)
	for i := range words {
		words[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		words[len(words)-1] = 1<<uint(r) - 1
	}
	return Set{words: words}
}

// Decomposition is a split f = FM − C with FM monotone submodular and C
// additive (C given by per-element costs).
type Decomposition struct {
	o *Oracle
	// C holds the additive costs c({e}).
	C []float64
	// truncated marks a decomposition whose cost computation was cut off
	// by the oracle's budget or context; the marginal-greedy algorithms
	// return an empty best-so-far result instead of consuming it.
	truncated bool
}

// DecomposeStar computes the Proposition 1 decomposition:
// c*(e) = f(U∖{e}) − f(U). It uses exactly n+1 oracle calls, f(U) and then
// each f(U∖{e}), as one batched — possibly concurrent — oracle call. When
// the oracle's budget is already exhausted (or is cut off mid-batch) the
// returned decomposition is marked truncated and carries no costs.
func DecomposeStar(o *Oracle) *Decomposition {
	if o.Interrupted() {
		return &Decomposition{o: o, truncated: true}
	}
	u := o.Universe()
	sets := make([]Set, o.N()+1)
	sets[0] = u
	for e := 0; e < o.N(); e++ {
		sets[e+1] = u.Without(e)
	}
	vals, ok := o.EvalBatch(sets)
	if !ok {
		return &Decomposition{o: o, truncated: true}
	}
	c := make([]float64, o.N())
	for e := range c {
		c[e] = vals[e+1] - vals[0]
	}
	return &Decomposition{o: o, C: c}
}

// NewDecomposition builds a decomposition with explicit additive costs;
// the caller asserts that f + Σ_{e∈S} cost(e) is monotone submodular.
func NewDecomposition(o *Oracle, costs []float64) *Decomposition {
	c := make([]float64, len(costs))
	copy(c, costs)
	return &Decomposition{o: o, C: c}
}

// ratio returns f'_M(e, S) / c(e); callers must ensure c(e) > 0.
func (d *Decomposition) ratio(e int, s Set) float64 {
	return d.ratioFrom(d.o.Eval(s.With(e)), d.o.Eval(s), e)
}

// ratioFrom is ratio computed from already-evaluated f(S∪{e}) and f(S);
// the batched greedy rounds use it so the sequential and batched paths
// share one definition of the ratio.
func (d *Decomposition) ratioFrom(fxe, fx float64, e int) float64 {
	return (fxe - fx + d.C[e]) / d.C[e]
}

// TheoremOneBound returns the Theorem 1 guarantee
// [1 − (c/f)·ln(1 + f/c)]·f for the optimum value f = f(Θ) and its cost
// c = c(Θ). For c ≤ 0 or f ≤ 0 the bound degenerates and 0 is returned.
func TheoremOneBound(fTheta, cTheta float64) float64 {
	if fTheta <= 0 || cTheta <= 0 {
		return 0
	}
	gamma := fTheta / cTheta
	return (1 - math.Log(1+gamma)/gamma) * fTheta
}
