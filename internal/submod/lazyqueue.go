package submod

import (
	"math"

	"repro/internal/faultinject"
)

// lazyChunkSize is the number of stale candidates a batched-lazy driver
// refreshes per oracle round once every candidate has been priced at least
// once. It is a fixed constant — deliberately independent of the oracle's
// evaluation parallelism — so the sequence of evaluated sets, and therefore
// every call-budget stop point, is identical however many workers the
// oracle evaluates a batch on.
const lazyChunkSize = 16

// lazyState classifies the cached bound of one candidate in a lazyQueue.
type lazyState uint8

const (
	// lazyStale: the bound is an upper bound on the candidate's current
	// marginal (its value at the last evaluation; valid by diminishing
	// returns). The candidate must be re-evaluated before it can be
	// selected.
	lazyStale lazyState = iota
	// lazyFresh: the bound is the candidate's exact marginal against the
	// current selection, evaluated since the last selection was made.
	lazyFresh
	// lazyExact: the bound was evaluated before one or more selections,
	// but every node selected since is provably non-interacting
	// (InteractionFunction), so the marginal is unchanged and the
	// candidate may be selected without re-evaluation.
	lazyExact
)

// lazyItem is one candidate in the queue.
type lazyItem struct {
	e     int
	bound float64
	state lazyState
}

// lazyQueue is a max-heap of candidates ordered by (bound desc, element
// asc). The tie-break mirrors the eager scan's first-maximum rule: among
// equal bounds the smallest element index surfaces first, so a lazy driver
// selects exactly the element an exhaustive scan would.
type lazyQueue struct {
	items []lazyItem
}

func (q *lazyQueue) len() int { return len(q.items) }

func (q *lazyQueue) less(i, j int) bool {
	if q.items[i].bound != q.items[j].bound {
		return q.items[i].bound > q.items[j].bound
	}
	return q.items[i].e < q.items[j].e
}

func (q *lazyQueue) swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *lazyQueue) push(it lazyItem) {
	q.items = append(q.items, it)
	q.up(len(q.items) - 1)
}

// popTop removes and returns the maximum item.
func (q *lazyQueue) popTop() lazyItem {
	top := q.items[0]
	n := len(q.items) - 1
	q.swap(0, n)
	q.items = q.items[:n]
	if n > 0 {
		q.down(0)
	}
	return top
}

func (q *lazyQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *lazyQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			return
		}
		c := l
		if r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q.swap(i, c)
		i = c
	}
}

// demote reclassifies every non-stale candidate after x was selected:
// candidates that provably cannot interact with x (per inter, when the
// oracle's function advertises interaction structure) keep their exact
// marginals; everything else falls back to a stale upper bound. It returns
// the number of exact marginals carried over.
func (q *lazyQueue) demote(inter InteractionFunction, x int) int {
	reused := 0
	for i := range q.items {
		it := &q.items[i]
		if it.state == lazyStale {
			continue
		}
		if inter != nil && !inter.Interacts(it.e, x) {
			it.state = lazyExact
			reused++
		} else {
			it.state = lazyStale
		}
	}
	return reused
}

// lazyRun is the batched-lazy greedy loop behind Greedy, LazyGreedy,
// MarginalGreedy, LazyMarginalGreedy and ResumeLazy (see runLazy): it takes
// over a heap and a selection — a fresh run's heap holds every candidate at
// an infinite bound — so a resumed run enters exactly the state the
// interrupted one left. It maintains the Minoux max-heap of upper bounds and
// repeatedly:
//
//   - selects the top candidate outright when its bound is exact (freshly
//     evaluated this round, or provably unchanged via the oracle's
//     InteractionFunction) and above the threshold;
//   - otherwise refreshes up to chunk stale candidates from the top of the
//     heap in one batched — possibly concurrent — oracle round. The first
//     pass (infinite initial bounds) always refreshes every candidate in a
//     single batch, exactly like an eager scan's first round.
//
// With d == nil it maximizes raw marginal gain f(X∪{e})−f(X) with
// threshold 0 (benefit greedy); with a decomposition it maximizes the
// marginal-ratio f'_M/c with threshold 1 and permanently prunes candidates
// observed below ratio 1 (Section 5.1). The selected set is identical to
// the exhaustive-scan drivers whenever the diminishing-returns assumption
// holds (and, for exact reuse, the InteractionFunction contract); chunk
// only trades oracle-round size against wall-clock parallelism and never
// affects which element is selected.
//
// Budgets and cancellation are checked before every oracle round; a
// stopped run keeps the deterministic greedy prefix selected so far and
// exports a Checkpoint (see checkpoint.go) from which ResumeLazy continues
// bit-identically.
func lazyRun(name string, o *Oracle, d *Decomposition, q *lazyQueue, x Set, chunk int, res *Result) Set {
	inter, _ := o.F.(InteractionFunction)
	threshold := 0.0
	if d != nil {
		threshold = 1
	}
	var sets []Set
	var elems []int
	var popped []lazyItem
	for q.len() > 0 {
		faultinject.Hit(faultinject.Round)
		if o.Interrupted() {
			res.Checkpoint = captureLazy(name, x, q, nil, res.Stale, d, res)
			break
		}
		top := q.items[0]
		if top.state != lazyStale {
			if top.bound <= threshold {
				// The top bound is exact and at or below the threshold;
				// every other bound lies below it, so no candidate can be
				// selected: the greedy run is complete.
				break
			}
			// The top bound is exact and above threshold: it is the true
			// maximum (every other bound is an upper bound below or equal
			// to it), so this is exactly the element an exhaustive scan
			// would select.
			q.popTop()
			cur, ok := o.eval(x.With(top.e))
			if !ok {
				// Pricing the selection faulted (a reused marginal left
				// f(X ∪ {e}) unpriced). The checkpoint is taken before the
				// selection, top back on the heap: the resumed run makes it.
				res.Checkpoint = captureLazy(name, x, q, []lazyItem{top}, res.Stale, d, res)
				break
			}
			x = x.With(top.e)
			res.Iterations++
			res.Reused += q.demote(inter, top.e)
			o.progress(name, res.Iterations, x.Len(), q.len(), cur)
			continue
		}
		// Refresh a chunk of stale candidates from the top of the heap in
		// one batched oracle round. Stale bounds at or below the threshold
		// are still re-priced (not skipped): a real oracle may violate
		// diminishing returns slightly, and re-evaluation lets a recovered
		// candidate surface exactly as it would under an exhaustive scan.
		// Never-evaluated candidates (infinite bound) are refreshed
		// together regardless of chunk, so the first round prices the
		// whole universe in a single batch.
		staleAt := res.Stale
		elems = elems[:0]
		popped = popped[:0]
		for q.len() > 0 && q.items[0].state == lazyStale &&
			(len(elems) < chunk || math.IsInf(q.items[0].bound, 1)) {
			it := q.popTop()
			if !math.IsInf(it.bound, 1) {
				res.Stale++
			}
			popped = append(popped, it)
			elems = append(elems, it.e)
		}
		// f(X) rides last in the round's batch: a memo hit, but for round
		// 1's f(∅) and a resumed run's first round.
		sets = sets[:0]
		for _, e := range elems {
			sets = append(sets, x.With(e))
		}
		sets = append(sets, x)
		vals, ok := o.EvalBatch(sets)
		if !ok {
			// The round was cut short. The popped candidates rejoin the
			// checkpoint heap with their pre-round stale bounds (its Stale
			// snapshot rolls back likewise), so the resumed run re-prices
			// them exactly as this round would have.
			res.Checkpoint = captureLazy(name, x, q, popped, staleAt, d, res)
			break
		}
		cur := vals[len(elems)]
		for i, e := range elems {
			if d != nil {
				r := d.ratioFrom(vals[i], cur, e)
				if r < 1 {
					res.Pruned++ // permanently pruned (Section 5.1)
					continue
				}
				q.push(lazyItem{e: e, bound: r, state: lazyFresh})
			} else {
				q.push(lazyItem{e: e, bound: vals[i] - cur, state: lazyFresh})
			}
		}
	}
	return x
}
