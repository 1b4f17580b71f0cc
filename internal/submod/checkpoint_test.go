package submod

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// yielder is a scripted scheduler hold: it asks for the slot once, at its
// at-th poll (never when at is 0) — a request the Yield that answers it
// clears, as a Grant's — and its Yield gives the slot back (nil) unless fail
// is set, in which case the re-grant never comes. polls counts the stop
// checks that polled it.
type yielder struct {
	at            int
	fail          bool
	polls, yields int
}

func (y *yielder) PreemptRequested() bool {
	y.polls++
	return y.polls == y.at
}

func (y *yielder) Yield(context.Context) error {
	y.yields++
	if y.fail {
		return errors.New("no re-grant")
	}
	return nil
}

// resumableDrivers enumerates every lazy driver with its entry point; the
// checkpoint tests sweep all of them.
var resumableDrivers = []struct {
	name string
	run  func(o *Oracle) Result
}{
	{"MarginalGreedy", func(o *Oracle) Result { return MarginalGreedy(DecomposeStar(o)) }},
	{"LazyMarginalGreedy", func(o *Oracle) Result { return LazyMarginalGreedy(DecomposeStar(o)) }},
	{"Greedy", func(o *Oracle) Result { return Greedy(o) }},
	{"LazyGreedy", func(o *Oracle) Result { return LazyGreedy(o) }},
}

// roundTripCheckpoint pushes a checkpoint through its JSON wire form — the
// shape repro.Session hands to HTTP clients — so the tests prove the
// serialized token, not the in-memory struct, is what resumes.
func roundTripCheckpoint(t *testing.T, cp *Checkpoint) *Checkpoint {
	t.Helper()
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatalf("marshal checkpoint: %v", err)
	}
	out := &Checkpoint{}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal checkpoint: %v", err)
	}
	return out
}

func assertResumeMatches(t *testing.T, label string, ref, got Result) {
	t.Helper()
	if !got.Set.Equal(ref.Set) {
		t.Fatalf("%s: resumed set %v != uninterrupted %v", label, got.Set.Sorted(), ref.Set.Sorted())
	}
	if got.Value != ref.Value {
		t.Fatalf("%s: resumed value %v != uninterrupted %v", label, got.Value, ref.Value)
	}
	if got.Iterations != ref.Iterations || got.Pruned != ref.Pruned ||
		got.Stale != ref.Stale || got.Reused != ref.Reused {
		t.Fatalf("%s: resumed counters %+v != uninterrupted %+v", label, got, ref)
	}
	if got.Stopped != StopNone || got.Checkpoint != nil {
		t.Fatalf("%s: resumed run did not complete: stopped=%v checkpoint=%v", label, got.Stopped, got.Checkpoint)
	}
}

func TestCheckpointResumeBitIdenticalEveryCutPoint(t *testing.T) {
	// For every lazy driver, a run stopped at every possible point plus a
	// resume from its (JSON round-tripped) checkpoint must reproduce the
	// uninterrupted run exactly: same set, same value, same
	// Iterations/Pruned/Stale/Reused. Two stop kinds sweep every point: a
	// call budget k for every k up to the run's calls, and a failed yield —
	// the Yielder asks for the slot at stop check c and never gives it back
	// — for every c up to the run's checks, which must stop with
	// StopPreempted every time: at the scan's first check with the Start
	// checkpoint, at a marginal driver's first (DecomposeStar's) with none.
	// A pause at check c whose yield succeeds is no stop: the run completes
	// as the unpaused one, with its oracle calls and no checkpoint.
	for _, dc := range resumableDrivers {
		firstScanCheck := 1
		if lazyDrivers[dc.name].marginal {
			firstScanCheck = 2
		}
		for seed := int64(0); seed < 3; seed++ {
			refO := randomInstance(seed, 12)
			polls := &yielder{}
			refO.SetControl(&Control{Yielder: polls})
			ref := dc.run(refO)
			total, checks := refO.Calls, polls.polls
			if checks < firstScanCheck {
				t.Fatalf("%s seed %d: the run made %d stop checks", dc.name, seed, checks)
			}
			// stop runs the driver under ctrl and resumes the stop; it
			// returns the checkpoint the stop left, if any.
			stop := func(label string, ctrl *Control, want StopReason) *Checkpoint {
				o := randomInstance(seed, 12)
				o.SetControl(ctrl)
				partial := dc.run(o)
				if partial.Stopped == StopNone {
					if !partial.Set.Equal(ref.Set) {
						t.Fatalf("%s: unstopped run diverged", label)
					}
					return nil
				}
				if partial.Stopped != want {
					t.Fatalf("%s: stopped %v, want %v", label, partial.Stopped, want)
				}
				if partial.Checkpoint == nil {
					// Stopped before the driver had any state to snapshot
					// (e.g. the decomposition itself was truncated).
					if !partial.Set.Empty() {
						t.Fatalf("%s: non-empty stop without checkpoint", label)
					}
					return nil
				}
				got, err := ResumeLazy(randomInstance(seed, 12), roundTripCheckpoint(t, partial.Checkpoint))
				if err != nil {
					t.Fatalf("%s: resume: %v", label, err)
				}
				assertResumeMatches(t, label, ref, got)
				return partial.Checkpoint
			}
			sawCheckpoint := false
			for k := 0; k <= total; k++ {
				label := fmt.Sprintf("%s seed %d budget %d", dc.name, seed, k)
				if stop(label, &Control{MaxCalls: k, HasMaxCalls: true}, StopCallBudget) != nil {
					sawCheckpoint = true
				}
			}
			if !sawCheckpoint {
				t.Errorf("%s seed %d: no budget produced a checkpoint", dc.name, seed)
			}
			for c := 1; c <= checks; c++ {
				label := fmt.Sprintf("%s seed %d yield fails at check %d", dc.name, seed, c)
				cp := stop(label, &Control{Yielder: &yielder{at: c, fail: true}}, StopPreempted)
				switch {
				case c < firstScanCheck:
					if cp != nil {
						t.Fatalf("%s: a stop before the decomposition left a checkpoint", label)
					}
				case cp == nil:
					t.Fatalf("%s: the run did not stop with a checkpoint", label)
				case c == firstScanCheck:
					start, _ := json.Marshal(startOf(dc.name, randomInstance(seed, 12)))
					if got, _ := json.Marshal(cp); string(got) != string(start) {
						t.Fatalf("%s: checkpoint %s, want the Start checkpoint %s", label, got, start)
					}
				}

				label = fmt.Sprintf("%s seed %d paused at check %d", dc.name, seed, c)
				y := &yielder{at: c}
				o := randomInstance(seed, 12)
				o.SetControl(&Control{Yielder: y})
				assertResumeMatches(t, label, ref, dc.run(o))
				if y.yields != 1 || o.Calls != total {
					t.Fatalf("%s: %d yields and %d oracle calls, want 1 and %d", label, y.yields, o.Calls, total)
				}
			}
		}
	}
}

func TestCheckpointMidBatchCancelRestoresRound(t *testing.T) {
	// A context cancellation lands mid-batch (unlike call budgets, which
	// stop at round boundaries): the popped candidates of the cut round
	// must rejoin the checkpoint with their pre-round bounds so the resume
	// re-prices them, reproducing the uninterrupted run exactly.
	const seed, n = 5, 12
	refO := randomInstance(seed, n)
	ref := Greedy(refO)
	sawCheckpoint := false
	for cut := 1; cut <= refO.Calls; cut++ {
		ctx, cancel := context.WithCancel(context.Background())
		f := &cancelAfterFunc{inner: randomInstance(seed, n).F, left: cut, cancel: cancel}
		o := NewOracle(f)
		o.SetControl(&Control{Ctx: ctx})
		partial := Greedy(o)
		cancel()
		if partial.Stopped == StopNone {
			continue
		}
		if partial.Checkpoint == nil {
			t.Fatalf("cut %d: stopped (%v) without checkpoint", cut, partial.Stopped)
		}
		sawCheckpoint = true
		got, err := ResumeLazy(randomInstance(seed, n), roundTripCheckpoint(t, partial.Checkpoint))
		if err != nil {
			t.Fatalf("cut %d: resume: %v", cut, err)
		}
		assertResumeMatches(t, "Greedy/midbatch", ref, got)
	}
	if !sawCheckpoint {
		t.Error("no cancellation point produced a checkpoint")
	}
}

func TestCheckpointResumesFreePhase(t *testing.T) {
	// Zero-cost elements force the marginal drivers into the free-element
	// phase; budgets landing inside it must yield MainDone checkpoints that
	// resume to the uninterrupted result.
	for seed := int64(0); seed < 3; seed++ {
		f := newBlockFunc(seed, 12, 3)
		costs := append([]float64(nil), f.costs...)
		costs[2], costs[7], costs[11] = 0, 0, 0
		ref := MarginalGreedy(NewDecomposition(NewOracle(f), costs))
		refCalls := 0
		{
			o := NewOracle(f)
			MarginalGreedy(NewDecomposition(o, costs))
			refCalls = o.Calls
		}
		sawFree := false
		for k := 0; k <= refCalls; k++ {
			o := NewOracle(f)
			o.SetControl(&Control{MaxCalls: k, HasMaxCalls: true})
			partial := MarginalGreedy(NewDecomposition(o, costs))
			if partial.Checkpoint == nil {
				continue
			}
			if partial.Checkpoint.MainDone {
				sawFree = true
			}
			got, err := ResumeLazy(NewOracle(f), roundTripCheckpoint(t, partial.Checkpoint))
			if err != nil {
				t.Fatalf("seed %d budget %d: resume: %v", seed, k, err)
			}
			assertResumeMatches(t, "MarginalGreedy/free", ref, got)
		}
		if !sawFree {
			t.Errorf("seed %d: no budget cut inside the free phase", seed)
		}
	}
}

func TestCheckpointChainedResume(t *testing.T) {
	// A resumed run under a budget produces a further checkpoint; chaining
	// tiny-budget resumes to completion must still reproduce the
	// uninterrupted run. This is the preemption loop a scheduler would
	// drive.
	const seed, n = 1, 12
	refO := randomInstance(seed, n)
	ref := LazyMarginalGreedy(DecomposeStar(refO))
	o := randomInstance(seed, n)
	o.SetControl(&Control{MaxCalls: n + 3, HasMaxCalls: true})
	partial := LazyMarginalGreedy(DecomposeStar(o))
	if partial.Checkpoint == nil {
		t.Fatalf("budget %d produced no checkpoint (stopped %v)", n+3, partial.Stopped)
	}
	cp := partial.Checkpoint
	hops := 0
	var got Result
	for {
		if hops++; hops > 500 {
			t.Fatal("chained resume made no progress")
		}
		o := randomInstance(seed, n)
		o.SetControl(&Control{MaxCalls: 3, HasMaxCalls: true})
		r, err := ResumeLazy(o, roundTripCheckpoint(t, cp))
		if err != nil {
			t.Fatalf("hop %d: %v", hops, err)
		}
		if r.Stopped == StopNone {
			got = r
			break
		}
		if r.Checkpoint == nil {
			t.Fatalf("hop %d: stopped (%v) without checkpoint", hops, r.Stopped)
		}
		cp = r.Checkpoint
	}
	if !got.Set.Equal(ref.Set) || got.Value != ref.Value {
		t.Fatalf("chained resume diverged: %v (%v) != %v (%v)",
			got.Set.Sorted(), got.Value, ref.Set.Sorted(), ref.Value)
	}
}

func TestCheckpointValidateRejectsMalformed(t *testing.T) {
	good := func() *Checkpoint {
		return &Checkpoint{
			Algorithm: "Greedy",
			Selected:  []int{1},
			Heap:      []CheckpointItem{{E: 2}, {E: 3}},
		}
	}
	cases := []struct {
		label  string
		mutate func(cp *Checkpoint)
	}{
		{"unknown algorithm", func(cp *Checkpoint) { cp.Algorithm = "EagerGreedy" }},
		{"element out of range", func(cp *Checkpoint) { cp.Selected = []int{99} }},
		{"selected twice", func(cp *Checkpoint) { cp.Selected = []int{1, 1} }},
		{"selected and queued", func(cp *Checkpoint) { cp.Heap[0].E = 1 }},
		{"bad lazy state", func(cp *Checkpoint) { cp.Heap[0].State = 9 }},
		{"costs on benefit driver", func(cp *Checkpoint) { cp.CostBits = make([]uint64, 10) }},
		{"free phase on benefit driver", func(cp *Checkpoint) { cp.MainDone = true }},
		{"missing costs", func(cp *Checkpoint) { cp.Algorithm = "MarginalGreedy" }},
	}
	for _, c := range cases {
		cp := good()
		c.mutate(cp)
		if err := cp.Validate(10); err == nil {
			t.Errorf("%s: Validate accepted the checkpoint", c.label)
		}
	}
	if err := good().Validate(10); err != nil {
		t.Errorf("well-formed checkpoint rejected: %v", err)
	}
}

// startOf is the Start checkpoint of the named driver over o: the marginal
// pair decompose first, as their callers do.
func startOf(name string, o *Oracle) *Checkpoint {
	if lazyDrivers[name].marginal {
		return Start(name, o.N(), DecomposeStar(o))
	}
	return Start(name, o.N(), nil)
}

// A fresh run is a resume from the Start checkpoint: for every lazy driver
// the driver call and ResumeLazy(Start) — through the wire form — agree on
// the set, its value, every counter and the oracle calls spent, on random
// and planted coverage instances and on the block function whose interaction
// structure exercises the exact-reuse path.
func TestFreshRunIsResumeFromStart(t *testing.T) {
	instances := map[string]func(seed int64) Function{
		"coverage": func(seed int64) Function { return RandomCoverage(seed, 14, 42, 3, 1.0, 1.2) },
		"planted":  func(seed int64) Function { return PlantedInstance(seed, 24, 4, 10, 5, 2) },
		"block":    func(seed int64) Function { return newBlockFunc(seed, 18, 3) },
	}
	for kind, mk := range instances {
		for i := 0; i < 6*len(resumableDrivers); i++ {
			seed, dc := int64(i/len(resumableDrivers)), resumableDrivers[i%len(resumableDrivers)]
			label := fmt.Sprintf("%s/%d", kind, seed)
			refO, o := NewOracle(mk(seed)), NewOracle(mk(seed))
			ref := dc.run(refO)
			got, err := ResumeLazy(o, roundTripCheckpoint(t, startOf(dc.name, o)))
			if err != nil {
				t.Fatalf("%s %s: resume from start: %v", label, dc.name, err)
			}
			assertResumeMatches(t, label+" "+dc.name, ref, got)
			if o.Calls != refO.Calls {
				t.Fatalf("%s %s: resume from start spent %d oracle calls, the driver %d", label, dc.name, o.Calls, refO.Calls)
			}
		}
	}
}
