package submod

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Checkpoint is a resumable round-boundary snapshot of a batched-lazy
// greedy run: everything the driver needs to continue exactly where a
// budget, cancellation, or recovered panic stopped it. It is pure data —
// no oracle or memo state — so a checkpoint taken on one session (even a
// quarantined one: the committed greedy prefix is exact regardless of what
// the panic poisoned) can be resumed on a fresh session over the same
// search space.
//
// Determinism contract: ResumeLazy over a checkpoint, against any oracle
// that prices sets identically, selects exactly the set an uninterrupted
// run would have selected, because the heap's (bound desc, element asc)
// order is total — the snapshot's contents, not its arrangement, determine
// every subsequent pop — and because chunked re-evaluation never affects
// which element wins a round.
//
// Float64 bounds and costs are stored as IEEE-754 bit patterns: the
// initial bounds are +Inf, which encoding/json cannot represent, and bit
// patterns survive JSON round-trips exactly where decimal rendering of
// extreme values might not.
type Checkpoint struct {
	// Algorithm names the lazy driver that produced the snapshot
	// ("MarginalGreedy", "LazyMarginalGreedy", "Greedy", "LazyGreedy");
	// resuming re-derives the chunk size and threshold from it.
	Algorithm string `json:"algorithm"`
	// Selected is the committed greedy prefix, ascending.
	Selected []int `json:"selected,omitempty"`
	// Heap is the surviving candidate queue in canonical (bound desc,
	// element asc) order, including any candidates that were popped for the
	// oracle round the stop interrupted (restored with their pre-round
	// stale bounds; the resumed run re-prices them).
	Heap []CheckpointItem `json:"heap,omitempty"`
	// CostBits carries the decomposition costs c(e) for the marginal
	// drivers (IEEE-754 bits, indexed by element), so a resume skips the
	// n+1 DecomposeStar oracle calls. Empty for the benefit-greedy drivers.
	CostBits []uint64 `json:"cost_bits,omitempty"`
	// MainDone marks a stop inside the free-element phase of the marginal
	// drivers: the heap phase is complete and the resume goes straight to
	// the remaining non-positive-cost elements (recomputed from CostBits
	// minus Selected).
	MainDone bool `json:"main_done,omitempty"`

	// Counter snapshots, so a resumed Result continues counting as if the
	// run had never stopped. Stale excludes pops of the interrupted round —
	// the resume performs and counts them itself.
	Iterations int `json:"iterations,omitempty"`
	Pruned     int `json:"pruned,omitempty"`
	Stale      int `json:"stale,omitempty"`
	Reused     int `json:"reused,omitempty"`
}

// CheckpointItem is one snapshotted heap entry.
type CheckpointItem struct {
	E         int    `json:"e"`
	BoundBits uint64 `json:"bound_bits"`
	State     uint8  `json:"state"`
}

// lazyDriver is what tells the four lazy drivers apart: how many stale
// candidates one oracle round refreshes, and whether the scan runs on a cost
// decomposition (marginal-ratio threshold 1 plus the free-element phase)
// rather than on raw benefit.
type lazyDriver struct {
	chunk    int
	marginal bool
}

// lazyDrivers is the one table of the drivers that checkpoint and resume,
// by Checkpoint.Algorithm name; core and the server ask Resumable.
var lazyDrivers = map[string]lazyDriver{
	"Greedy":             {lazyChunkSize, false},
	"LazyGreedy":         {1, false},
	"MarginalGreedy":     {lazyChunkSize, true},
	"LazyMarginalGreedy": {1, true},
}

// Resumable reports whether name is a lazy driver: one whose interrupted run
// leaves a Checkpoint that ResumeLazy continues.
func Resumable(name string) bool {
	_, ok := lazyDrivers[name]
	return ok
}

// Start is the checkpoint a run of the named driver that has not begun would
// leave: nothing selected, every candidate queued with an infinite bound —
// for the marginal drivers the positive-cost elements of d, whose costs the
// checkpoint carries; d is nil for the benefit-greedy pair. A fresh run is
// ResumeLazy from it, and a fresh run stopped at its first check leaves it.
func Start(name string, n int, d *Decomposition) *Checkpoint {
	cp := &Checkpoint{Algorithm: name, Heap: make([]CheckpointItem, 0, n)}
	if d != nil {
		cp.CostBits = costBits(d)
	}
	for e := 0; e < n; e++ {
		if d == nil || d.C[e] > epsCost {
			cp.Heap = append(cp.Heap, CheckpointItem{E: e, BoundBits: math.Float64bits(math.Inf(1)), State: uint8(lazyStale)})
		}
	}
	return cp
}

func costBits(d *Decomposition) []uint64 {
	out := make([]uint64, len(d.C))
	for i, c := range d.C {
		out[i] = math.Float64bits(c)
	}
	return out
}

// captureLazy snapshots an interrupted lazy run. popped holds the items of
// the oracle round the stop cut short (nil when the stop hit a round
// boundary); they rejoin the heap with their pre-round bounds. staleAt is
// the Stale counter before the interrupted round's pops.
func captureLazy(name string, x Set, q *lazyQueue, popped []lazyItem, staleAt int, d *Decomposition, res *Result) *Checkpoint {
	cp := &Checkpoint{
		Algorithm:  name,
		Selected:   x.Sorted(),
		Iterations: res.Iterations,
		Pruned:     res.Pruned,
		Stale:      staleAt,
		Reused:     res.Reused,
	}
	items := make([]lazyItem, 0, q.len()+len(popped))
	items = append(items, q.items...)
	items = append(items, popped...)
	sortLazyItems(items)
	for _, it := range items {
		cp.Heap = append(cp.Heap, CheckpointItem{
			E:         it.e,
			BoundBits: math.Float64bits(it.bound),
			State:     uint8(it.state),
		})
	}
	if d != nil {
		cp.CostBits = costBits(d)
	}
	return cp
}

// captureFree snapshots a stop inside the free-element phase: the heap
// phase is over, so there is no heap to carry.
func captureFree(name string, x Set, d *Decomposition, res *Result) *Checkpoint {
	if !Resumable(name) {
		return nil // eager reference drivers do not checkpoint
	}
	cp := captureLazy(name, x, &lazyQueue{}, nil, res.Stale, d, res)
	cp.MainDone = true
	return cp
}

// sortLazyItems orders items canonically: (bound desc, element asc) — the
// heap's total order, so rebuilding a heap from the sorted slice reproduces
// the exact pop sequence of the snapshotted one.
func sortLazyItems(items []lazyItem) {
	slices.SortFunc(items, func(a, b lazyItem) int {
		return cmp.Or(cmp.Compare(b.bound, a.bound), cmp.Compare(a.e, b.e))
	})
}

// Validate checks the snapshot's internal consistency against a universe of
// n elements: known algorithm, element indexes in range, no element both
// selected and queued, costs present exactly when the driver needs them.
func (cp *Checkpoint) Validate(n int) error {
	drv, ok := lazyDrivers[cp.Algorithm]
	if !ok {
		return fmt.Errorf("submod: %q is not a resumable lazy driver", cp.Algorithm)
	}
	seen := make(map[int]bool, len(cp.Selected)+len(cp.Heap))
	for _, e := range cp.Selected {
		if e < 0 || e >= n {
			return fmt.Errorf("submod: checkpoint selects element %d outside universe [0,%d)", e, n)
		}
		if seen[e] {
			return fmt.Errorf("submod: checkpoint selects element %d twice", e)
		}
		seen[e] = true
	}
	for _, it := range cp.Heap {
		if it.E < 0 || it.E >= n {
			return fmt.Errorf("submod: checkpoint queues element %d outside universe [0,%d)", it.E, n)
		}
		if seen[it.E] {
			return fmt.Errorf("submod: checkpoint element %d both selected and queued", it.E)
		}
		seen[it.E] = true
		if it.State > uint8(lazyExact) {
			return fmt.Errorf("submod: checkpoint element %d has unknown lazy state %d", it.E, it.State)
		}
	}
	if drv.marginal {
		if len(cp.CostBits) != n {
			return fmt.Errorf("submod: checkpoint carries %d costs for a universe of %d", len(cp.CostBits), n)
		}
	} else {
		if cp.MainDone {
			return fmt.Errorf("submod: %s checkpoint marks a free phase it does not have", cp.Algorithm)
		}
		if len(cp.CostBits) != 0 {
			return fmt.Errorf("submod: %s checkpoint carries costs it does not use", cp.Algorithm)
		}
	}
	return nil
}

// ResumeLazy continues a lazy-driver run from a checkpoint against a fresh
// oracle over the same universe. The final Result is bit-identical — same
// set, same value, same Iterations/Pruned/Stale/Reused counters — to the
// run the checkpoint interrupted had it never stopped, provided the oracle
// prices sets identically (same search space; validated upstream by the
// searcher fingerprint in repro.Checkpoint). The resumed run honors the
// oracle's own Control, so it can itself stop and produce a further
// checkpoint.
func ResumeLazy(o *Oracle, cp *Checkpoint) (Result, error) {
	if err := cp.Validate(o.N()); err != nil {
		return Result{}, err
	}
	return runLazy(o, cp, lazyDrivers[cp.Algorithm]), nil
}

// runLazy is the one body of the lazy drivers: it enters the scan in the
// state cp describes — the Start checkpoint for a fresh run, an interrupted
// run's for a resume — runs the heap phase and, for the marginal drivers,
// the free-element phase, and prices the chosen set. cp is well formed; drv
// is its driver's row of lazyDrivers (tests vary the chunk).
func runLazy(o *Oracle, cp *Checkpoint, drv lazyDriver) Result {
	var d *Decomposition
	if drv.marginal {
		costs := make([]float64, len(cp.CostBits))
		for i, b := range cp.CostBits {
			costs[i] = math.Float64frombits(b)
		}
		d = &Decomposition{o: o, C: costs}
	}
	res := Result{
		Iterations: cp.Iterations,
		Pruned:     cp.Pruned,
		Stale:      cp.Stale,
		Reused:     cp.Reused,
	}
	x := NewSet(cp.Selected...)
	if !cp.MainDone {
		q := lazyQueue{items: make([]lazyItem, 0, len(cp.Heap))}
		for _, it := range cp.Heap {
			q.push(lazyItem{e: it.E, bound: math.Float64frombits(it.BoundBits), state: lazyState(it.State)})
		}
		x = lazyRun(cp.Algorithm, o, d, &q, x, drv.chunk, &res)
	}
	if d != nil && o.StopReason() == StopNone {
		var free []int
		for e := 0; e < o.N(); e++ {
			if d.C[e] <= epsCost && !x.Contains(e) {
				free = append(free, e)
			}
		}
		x = addFree(cp.Algorithm, d, x, free, &res)
	}
	res.finish(o, x)
	return res
}
