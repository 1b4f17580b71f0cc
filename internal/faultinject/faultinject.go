// Package faultinject is the deterministic fault-injection backbone of the
// chaos test suites: a process-wide, atomically installed Schedule of
// injection Rules that fire at exact hit counts of named injection Points
// sprinkled through the optimizer core (oracle evaluations, greedy round
// boundaries, executor tasks) and the serving tier (session-pool lookups
// and evictions).
//
// Production behavior is a strict no-op: with no schedule installed every
// Hit call is a single atomic pointer load that returns immediately, so
// the injection sites cost nothing measurable on the hot paths they
// instrument. Tests install a Schedule with Enable, which returns a
// restore function; schedules are never installed outside tests.
//
// Determinism is the point. A Rule fires at the Nth hit of its point —
// counters are per-schedule and atomic — so a given (workload seed,
// schedule) pair replays the same fault at the same place every run, and a
// fault-free replay of the same seed is bit-identical to an undisturbed
// run. The Seed field tags the schedule for replay bookkeeping; chaos
// tests derive their rule positions from it.
//
// The package also owns PanicError, the typed recover-to-error carrier the
// fault-tolerance layer propagates instead of letting a worker-goroutine
// panic kill the process: the recovered value plus the stack captured at
// the recovery site.
package faultinject

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// Point names one injection site.
type Point uint8

// Injection points.
const (
	// OracleEval fires before each bc(S) evaluation in
	// physical.Searcher.BestCostBatchCtx, which every bestCost call of a
	// run goes through: one hit per Telemetry.BCCalls.
	OracleEval Point = iota
	// Round fires at each greedy round boundary (submod.lazyRun),
	// after budget checks and before the round's oracle work.
	Round
	// PoolGet fires on each session-pool acquire (internal/server).
	PoolGet
	// PoolEvict fires inside session-pool eviction, while the pool lock is
	// held released — used to widen eviction races.
	PoolEvict
	numPoints
)

// String implements fmt.Stringer.
func (p Point) String() string {
	switch p {
	case OracleEval:
		return "oracle-eval"
	case Round:
		return "round"
	case PoolGet:
		return "pool-get"
	case PoolEvict:
		return "pool-evict"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Rule is one scheduled fault: at the Nth hit of Point (1-based; N = 0
// means every hit), run Fn (if any), sleep Delay (if any), then panic with
// an *Injected (if Panic). Fn runs on the goroutine that hit the point, so
// a rule can cancel a context at round k, invalidate a cache mid-run, or
// block to widen a race window.
type Rule struct {
	Point Point
	N     int64
	Panic bool
	Delay time.Duration
	Fn    func()
}

// Schedule is a set of rules with per-point hit counters. Install with
// Enable; a schedule must not be reused across Enable calls (its counters
// carry state).
type Schedule struct {
	seed     int64
	rules    [numPoints][]Rule
	counters [numPoints]atomic.Int64
}

// NewSchedule builds a schedule. The seed does not drive anything inside
// the package — rules fire at their explicit Ns — but tags the schedule so
// chaos tests that derived their rule positions from a seeded source can
// name the replay.
func NewSchedule(seed int64, rules ...Rule) *Schedule {
	s := &Schedule{seed: seed}
	for _, r := range rules {
		if r.Point >= numPoints {
			panic(fmt.Sprintf("faultinject: unknown point %d", r.Point))
		}
		s.rules[r.Point] = append(s.rules[r.Point], r)
	}
	return s
}

// Seed returns the schedule's tag.
func (s *Schedule) Seed() int64 { return s.seed }

// Hits reports how many times a point has been hit under this schedule.
func (s *Schedule) Hits(p Point) int64 { return s.counters[p].Load() }

// active is the installed schedule; nil in production.
var active atomic.Pointer[Schedule]

// Enable installs the schedule process-wide and returns a function that
// restores the previous state. Tests only; callers must restore before
// the test ends so schedules never leak across tests.
func Enable(s *Schedule) (restore func()) {
	prev := active.Swap(s)
	return func() { active.Store(prev) }
}

// Enabled reports whether a schedule is installed (chaos tests assert
// their cleanup ran).
func Enabled() bool { return active.Load() != nil }

// Hit is the injection-site entry point. With no schedule installed it is
// a single atomic load; with one, it counts the hit and fires every
// matching rule in order.
func Hit(p Point) {
	s := active.Load()
	if s == nil {
		return
	}
	s.hit(p)
}

func (s *Schedule) hit(p Point) {
	n := s.counters[p].Add(1)
	for i := range s.rules[p] {
		r := &s.rules[p][i]
		if r.N != 0 && r.N != n {
			continue
		}
		if r.Fn != nil {
			r.Fn()
		}
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		if r.Panic {
			panic(&Injected{Point: p, N: n, Seed: s.seed})
		}
	}
}

// Injected is the panic value of a scheduled panic rule; chaos tests
// assert the recovered PanicError wraps one.
type Injected struct {
	Point Point
	N     int64
	Seed  int64
}

// Error implements error.
func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s hit %d (seed %d)", e.Point, e.N, e.Seed)
}

// PanicError is a recovered panic turned into an error: the fault-
// tolerance layer's typed carrier. Worker goroutines in the oracle scan
// and the executor recover panics into one of these and propagate it as an
// ordinary error instead of crashing the process; the serving tier turns
// it into a 500 with an incident id and quarantines the owning session.
type PanicError struct {
	// Site names where the panic was recovered, e.g. "physical.BestCostBatch".
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery site.
	Stack []byte
}

// NewPanicError captures the current stack around a recovered value.
func NewPanicError(site string, value any) *PanicError {
	return &PanicError{Site: site, Value: value, Stack: debug.Stack()}
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in %s: %v", e.Site, e.Value)
}

// Unwrap exposes a panic value that was itself an error (an *Injected,
// for instance) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}
