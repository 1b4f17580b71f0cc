package submod

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
)

// StopReason says why a maximization run ended before its natural
// termination; StopNone marks a complete run.
type StopReason int

// Stop reasons.
const (
	// StopNone: the algorithm ran to its own stopping condition.
	StopNone StopReason = iota
	// StopCancelled: the run's context was cancelled.
	StopCancelled
	// StopTimeBudget: the run's context deadline (the time budget) passed.
	StopTimeBudget
	// StopCallBudget: the oracle-call budget was exhausted.
	StopCallBudget
	// StopPanic: the oracle recovered a panic mid-batch; the run stopped on
	// the committed prefix and the fault is available via Oracle.Fault.
	StopPanic
	// StopPreempted: the run paused for its scheduler at a stop check
	// (Control.Yielder) and did not get its slot back — the Yield failed —
	// so it stopped there, before the round the check guarded. A pause the
	// scheduler ends is no stop at all: the run continues in place. The
	// stopped run's checkpoint (a lazy run stopped at its first check: the
	// Start checkpoint) resumes it bit-identically; a preemption is a yield,
	// not a failure.
	StopPreempted
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopCancelled:
		return "cancelled"
	case StopTimeBudget:
		return "time-budget"
	case StopCallBudget:
		return "call-budget"
	case StopPanic:
		return "panic"
	case StopPreempted:
		return "preempted"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the reason as its String form, so telemetry on the
// wire says "time-budget" rather than an opaque integer.
func (r StopReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.String())
}

// UnmarshalJSON parses the String form written by MarshalJSON.
func (r *StopReason) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for v := StopNone; v <= StopPreempted; v++ { // first and last declared
		if v.String() == s {
			*r = v
			return nil
		}
	}
	return fmt.Errorf("submod: unknown stop reason %q", s)
}

// Progress is a per-round report delivered to a Control's OnProgress
// callback after every completed algorithm round. Callbacks run on the
// algorithm's goroutine between oracle rounds, so cancelling the run's
// context from inside one stops the algorithm at a deterministic round.
type Progress struct {
	Algorithm   string  // e.g. "MarginalGreedy"
	Round       int     // 1-based completed round
	Selected    int     // |X| so far
	Remaining   int     // candidates still in play
	OracleCalls int     // memoized-distinct oracle calls so far
	Best        float64 // f(X) of the current selection
}

// Control bounds one maximization run and records why it stopped: a
// cancelled context, a passed deadline, a spent call budget, a recovered
// panic or a failed yield. It is the one report of a stop — a driver's
// Result reads the reason recorded here. All checks happen at the drivers'
// stop checks (Oracle.Interrupted), before each oracle round (a round's
// batch runs to completion unless the context itself is cancelled
// mid-batch), so a stopped run returns a deterministic best-so-far set:
// the greedy prefix selected by the completed rounds. The same checks are
// where a run pauses (Yielder).
type Control struct {
	// Ctx cancels the run; nil means never. Time budgets are expressed as
	// context deadlines and reported as StopTimeBudget.
	Ctx context.Context
	// MaxCalls caps the memoized-distinct oracle calls when HasMaxCalls is
	// set. Zero with HasMaxCalls set forbids any oracle call: algorithms
	// return the empty set.
	MaxCalls    int
	HasMaxCalls bool
	// OnProgress, when non-nil, receives a report after every completed
	// round.
	OnProgress func(Progress)
	// Yielder, when non-nil, is polled at every stop check — before each
	// oracle round, the first included — unless a stop is recorded or the
	// context is done. When the scheduler asked for the slot the run pauses
	// there, in Yield, and then continues in place — the same memo, the same
	// function — so a paused run is the unpaused run. Only a failed Yield
	// stops it: StopPreempted (the context's reason if the context ended the
	// wait), which wins over a call budget spent on the round before.
	// Pausing only between rounds leaves a stopped run a checkpoint that
	// re-prices nothing.
	Yielder Yielder

	reason StopReason // sticky once a stop condition has been observed
	fault  error      // the recovered panic behind a StopPanic reason
}

// Yielder is a scheduler's hold on the slot a run occupies: the two halves
// of a pause. PreemptRequested is the poll, made at every stop check; Yield
// gives the slot back and blocks until the scheduler grants it again (nil)
// or gives up (an error: no re-grant within its wait, or ctx ended). A
// request is answered by the Yield that follows it: PreemptRequested reports
// false again once Yield returned, until the scheduler asks anew.
type Yielder interface {
	PreemptRequested() bool
	Yield(ctx context.Context) error
}

// Fault returns the recovered panic that stopped the run (nil unless the
// reason is StopPanic).
func (c *Control) Fault() error {
	if c == nil {
		return nil
	}
	return c.fault
}

// Faulter is the optional interface a BatchFunction implements to surface
// a panic it recovered during an aborted batch: Fault returns — and clears
// — the error behind the most recent ok=false result.
// physical.Searcher-backed oracles implement it via TakeFault.
type Faulter interface {
	Fault() error
}

// Fault returns the recovered panic that stopped this oracle's run, if
// any. It is sticky on the control, not the underlying function, so it
// survives after the function's own fault slot is drained.
func (o *Oracle) Fault() error { return o.ctrl.Fault() }

// SetControl attaches a control to the oracle; nil detaches it.
func (o *Oracle) SetControl(c *Control) { o.ctrl = c }

// Interrupted is every driver's stop check, made before each oracle round
// (and before DecomposeStar's batch and each free-element pass): it reports
// — stickily — whether the run must stop, and it is where a run pauses. In
// order: a stop already recorded; a done context; a pause the Yielder asks
// for, taken here — Yield, then continue in place, unless the Yield failed
// or the context ended meanwhile, which records StopPreempted or the
// context's reason; a spent call budget.
func (o *Oracle) Interrupted() bool {
	c := o.ctrl
	if c == nil {
		return false
	}
	ctx := cmp.Or(c.Ctx, context.Background())
	if c.reason == StopNone {
		c.reason = ctxStopReason(ctx)
	}
	if c.reason == StopNone && c.Yielder != nil && c.Yielder.PreemptRequested() {
		if err := c.Yielder.Yield(ctx); err != nil || ctx.Err() != nil {
			c.reason = cmp.Or(ctxStopReason(ctx), StopPreempted)
		}
	}
	if c.reason == StopNone && c.HasMaxCalls && o.Calls >= c.MaxCalls {
		c.reason = StopCallBudget
	}
	return c.reason != StopNone
}

// StopReason returns the stop the Control recorded: StopNone while the run
// is unbounded, still running or complete. It re-reads nothing — only
// Interrupted and an aborted evaluation record a stop.
func (o *Oracle) StopReason() StopReason {
	if o.ctrl == nil {
		return StopNone
	}
	return o.ctrl.reason
}

// ctxStopReason classifies a context as a stop reason: not done maps to
// StopNone, a passed deadline — or a cancellation whose cause is
// context.DeadlineExceeded, the way a time budget that stops for pauses ends
// a run — to StopTimeBudget, any other cancellation to StopCancelled. It is
// the single classification rule for every context check.
func ctxStopReason(ctx context.Context) StopReason {
	switch {
	case ctx.Err() == nil:
		return StopNone
	case errors.Is(context.Cause(ctx), context.DeadlineExceeded):
		return StopTimeBudget
	default:
		return StopCancelled
	}
}

// ctxCancelled reports whether the context alone is done (the mid-batch
// abort condition: call budgets never cut a round short), recording the
// reason when it is.
func (o *Oracle) ctxCancelled() bool {
	c := o.ctrl
	if c == nil || c.Ctx == nil || c.Ctx.Err() == nil {
		return false
	}
	if c.reason == StopNone {
		c.reason = ctxStopReason(c.Ctx)
	}
	return true
}

// markCancelled records a mid-batch abort reported by a BatchFunction: a
// recovered panic wins over budget classification, otherwise the context's
// error decides.
func (o *Oracle) markCancelled() {
	if o.faulted() || o.ctrl == nil {
		return
	}
	if !o.ctxCancelled() && o.ctrl.reason == StopNone {
		o.ctrl.reason = StopCancelled
	}
}

// faulted drains the panic the function recovered in its last evaluation,
// if it reports one (Faulter), into a StopPanic stop — on a control of its
// own when the oracle has none, so the fault is never dropped.
func (o *Oracle) faulted() bool {
	f, ok := o.F.(Faulter)
	if !ok {
		return false
	}
	err := f.Fault()
	if err == nil {
		return false
	}
	if o.ctrl == nil {
		o.ctrl = &Control{}
	}
	if o.ctrl.reason == StopNone || o.ctrl.reason == StopCancelled {
		o.ctrl.reason = StopPanic
		o.ctrl.fault = err
	}
	return true
}

// progress reports a completed round to the control's callback, if any.
func (o *Oracle) progress(alg string, round, selected, remaining int, best float64) {
	if c := o.ctrl; c != nil && c.OnProgress != nil {
		c.OnProgress(Progress{
			Algorithm:   alg,
			Round:       round,
			Selected:    selected,
			Remaining:   remaining,
			OracleCalls: o.Calls,
			Best:        best,
		})
	}
}
