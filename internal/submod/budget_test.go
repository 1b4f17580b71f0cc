package submod

import (
	"context"
	"testing"
	"time"
)

func controlled(o *Oracle, ctx context.Context, maxCalls int, has bool, onProgress func(Progress)) *Oracle {
	o.SetControl(&Control{Ctx: ctx, MaxCalls: maxCalls, HasMaxCalls: has, OnProgress: onProgress})
	return o
}

func TestBudgetZeroCallsReturnsEmptySet(t *testing.T) {
	o := controlled(randomInstance(1, 12), nil, 0, true, nil)
	mg := MarginalGreedy(DecomposeStar(o))
	if !mg.Set.Empty() || mg.Value != 0 {
		t.Errorf("MarginalGreedy under zero budget: set %v value %v", mg.Set.Sorted(), mg.Value)
	}
	if mg.Stopped != StopCallBudget {
		t.Errorf("Stopped = %v, want %v", mg.Stopped, StopCallBudget)
	}
	if o.Calls != 0 {
		t.Errorf("zero budget spent %d oracle calls", o.Calls)
	}
	o2 := controlled(randomInstance(1, 12), nil, 0, true, nil)
	if g := Greedy(o2); !g.Set.Empty() || g.Stopped != StopCallBudget || o2.Calls != 0 {
		t.Errorf("Greedy under zero budget: set %v stopped %v calls %d", g.Set.Sorted(), g.Stopped, o2.Calls)
	}
}

func TestBudgetCallLimitIsDeterministic(t *testing.T) {
	unbounded := MarginalGreedy(DecomposeStar(randomInstance(2, 14)))
	for _, budget := range []int{20, 40, 80} {
		run := func() Result {
			o := controlled(randomInstance(2, 14), nil, budget, true, nil)
			return MarginalGreedy(DecomposeStar(o))
		}
		a, b := run(), run()
		if !a.Set.Equal(b.Set) || a.Stopped != b.Stopped {
			t.Fatalf("budget %d not deterministic: %v/%v vs %v/%v",
				budget, a.Set.Sorted(), a.Stopped, b.Set.Sorted(), b.Stopped)
		}
		// A budgeted run selects a prefix of the unbudgeted greedy order.
		a.Set.ForEach(func(e int) {
			if !unbounded.Set.Contains(e) {
				t.Errorf("budget %d selected %d, which the full run never picks", budget, e)
			}
		})
	}
	// A generous budget reproduces the unbudgeted answer exactly.
	o := controlled(randomInstance(2, 14), nil, 1<<20, true, nil)
	if full := MarginalGreedy(DecomposeStar(o)); !full.Set.Equal(unbounded.Set) || full.Stopped != StopNone {
		t.Errorf("large budget diverged: %v (%v) vs %v", full.Set.Sorted(), full.Stopped, unbounded.Set.Sorted())
	}
}

func TestBudgetCancelViaProgressIsDeterministic(t *testing.T) {
	run := func() (Result, int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		rounds := 0
		o := randomInstance(3, 14)
		controlled(o, ctx, 0, false, func(p Progress) {
			rounds = p.Round
			if p.Round == 2 {
				cancel()
			}
		})
		return MarginalGreedy(DecomposeStar(o)), rounds
	}
	a, ra := run()
	b, rb := run()
	if !a.Set.Equal(b.Set) || ra != rb {
		t.Fatalf("cancellation not deterministic: %v (round %d) vs %v (round %d)",
			a.Set.Sorted(), ra, b.Set.Sorted(), rb)
	}
	if a.Stopped != StopCancelled {
		t.Errorf("Stopped = %v, want %v", a.Stopped, StopCancelled)
	}
	if got := a.Set.Len(); got != 2 {
		t.Errorf("cancelled after round 2 but kept %d selections", got)
	}
}

func TestBudgetExpiredDeadlineReportsTimeBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	o := controlled(randomInstance(4, 12), ctx, 0, false, nil)
	mg := MarginalGreedy(DecomposeStar(o))
	if !mg.Set.Empty() || mg.Stopped != StopTimeBudget {
		t.Errorf("expired deadline: set %v stopped %v", mg.Set.Sorted(), mg.Stopped)
	}
	if o.Calls != 0 {
		t.Errorf("expired deadline still spent %d calls", o.Calls)
	}
}

// abortingBatch wraps a Function and fails the batch evaluation once the
// underlying context is cancelled — the shape of the bestCost batch path.
type abortingBatch struct {
	Function
	ctx context.Context
}

func (a *abortingBatch) EvalBatch(sets []Set) ([]float64, bool) {
	out := make([]float64, len(sets))
	for i, s := range sets {
		if a.ctx.Err() != nil {
			return out[:i], false
		}
		out[i] = a.Function.Eval(s)
	}
	return out, true
}

func TestBudgetMidBatchAbortKeepsCompletedRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := RandomCoverage(5, 12, 36, 3, 1.0, 1.2)
	o := NewOracle(&abortingBatch{Function: inner, ctx: ctx})
	controlled(o, ctx, 0, false, func(p Progress) {
		if p.Round == 1 {
			cancel() // next round's batch aborts mid-flight
		}
	})
	mg := MarginalGreedy(DecomposeStar(o))
	if mg.Stopped != StopCancelled {
		t.Errorf("Stopped = %v, want %v", mg.Stopped, StopCancelled)
	}
	if mg.Set.Len() != 1 {
		t.Errorf("kept %d selections, want the single completed round", mg.Set.Len())
	}
	// The reported value must be the real f of the returned set, not a
	// partial-batch artifact.
	if want := inner.Eval(mg.Set); mg.Value != want {
		t.Errorf("value %v != f(set) %v", mg.Value, want)
	}
}

func TestBudgetProgressReportsAdvance(t *testing.T) {
	var rounds []int
	var calls []int
	o := randomInstance(6, 12)
	controlled(o, nil, 0, false, func(p Progress) {
		if p.Algorithm != "MarginalGreedy" {
			t.Errorf("algorithm %q", p.Algorithm)
		}
		rounds = append(rounds, p.Round)
		calls = append(calls, p.OracleCalls)
	})
	mg := MarginalGreedy(DecomposeStar(o))
	if len(rounds) != mg.Set.Len() && len(rounds) != mg.Iterations {
		t.Logf("rounds reported: %v (iterations %d, selected %d)", rounds, mg.Iterations, mg.Set.Len())
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != rounds[i-1]+1 || calls[i] < calls[i-1] {
			t.Fatalf("progress not monotone: rounds %v calls %v", rounds, calls)
		}
	}
	if mg.Stopped != StopNone {
		t.Errorf("unbudgeted run reported Stopped = %v", mg.Stopped)
	}
}

func TestBudgetOffIsBitIdenticalToUncontrolled(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		plain := MarginalGreedy(DecomposeStar(randomInstance(seed, 12)))
		o := controlled(randomInstance(seed, 12), context.Background(), 0, false, nil)
		ctl := MarginalGreedy(DecomposeStar(o))
		if !plain.Set.Equal(ctl.Set) || plain.Value != ctl.Value || ctl.Stopped != StopNone {
			t.Fatalf("seed %d: controlled run diverged: %v/%v vs %v/%v",
				seed, plain.Set.Sorted(), plain.Value, ctl.Set.Sorted(), ctl.Value)
		}
	}
}

// Volcano-SH reports the stop its Control recorded: a run whose yield fails
// at stop check c — one before each try — stops with StopPreempted after
// c-1 tries, keeping what the run over those tries alone keeps, and a run
// that completed every try reports StopNone, also when its Yielder would
// ask only after the last try, where no check is left to pause at.
func TestVolcanoSHReportsItsControl(t *testing.T) {
	const n = 10
	order := []int{7, 2, 9, 0, 4, 1, 8, 3, 6, 5}
	polls := &yielder{}
	ref := randomInstance(4, n)
	ref.SetControl(&Control{Yielder: polls})
	if r := VolcanoSH(ref, order); r.Stopped != StopNone || r.Iterations != len(order) || polls.polls != len(order) {
		t.Fatalf("complete run: stopped %v after %d tries and %d checks, want none after %d and %d", r.Stopped, r.Iterations, polls.polls, len(order), len(order))
	}
	for c := 1; c <= len(order)+1; c++ {
		o := randomInstance(4, n)
		o.SetControl(&Control{Yielder: &yielder{at: c, fail: true}})
		got := VolcanoSH(o, order)
		tries := min(c-1, len(order))
		want := VolcanoSH(randomInstance(4, n), order[:tries])
		wantStop := StopPreempted
		if c > len(order) {
			wantStop = StopNone
		}
		if got.Stopped != wantStop || got.Iterations != tries || !got.Set.Equal(want.Set) || got.Value != want.Value {
			t.Fatalf("yield fails at check %d: stopped %v after %d tries with %v (%v), want %v after %d with %v (%v)",
				c, got.Stopped, got.Iterations, got.Set.Sorted(), got.Value, wantStop, tries, want.Set.Sorted(), want.Value)
		}
	}
}
