package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestHitNoScheduleIsNoop(t *testing.T) {
	if Enabled() {
		t.Fatal("schedule installed at test start")
	}
	Hit(OracleEval) // must not panic or count anything
}

func TestRuleFiresAtExactHit(t *testing.T) {
	s := NewSchedule(42, Rule{Point: OracleEval, N: 3, Panic: true})
	restore := Enable(s)
	defer restore()
	if !Enabled() {
		t.Fatal("Enable did not install the schedule")
	}
	Hit(OracleEval)
	Hit(OracleEval)
	Hit(Round) // other points do not advance this counter
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("third hit did not panic")
			}
			inj, ok := r.(*Injected)
			if !ok {
				t.Fatalf("panic value %T, want *Injected", r)
			}
			if inj.Point != OracleEval || inj.N != 3 || inj.Seed != 42 {
				t.Fatalf("injected = %+v", inj)
			}
		}()
		Hit(OracleEval)
	}()
	Hit(OracleEval) // hit 4: rule pinned to 3 no longer fires
	if got := s.Hits(OracleEval); got != 4 {
		t.Errorf("Hits(OracleEval) = %d, want 4", got)
	}
	if got := s.Hits(Round); got != 1 {
		t.Errorf("Hits(Round) = %d, want 1", got)
	}
}

func TestEveryHitRuleAndFnAndDelay(t *testing.T) {
	fired := 0
	s := NewSchedule(0,
		Rule{Point: Round, Fn: func() { fired++ }},
		Rule{Point: PoolGet, N: 1, Delay: time.Millisecond},
	)
	restore := Enable(s)
	defer restore()
	for i := 0; i < 5; i++ {
		Hit(Round)
	}
	if fired != 5 {
		t.Errorf("N=0 rule fired %d times, want every hit (5)", fired)
	}
	start := time.Now()
	Hit(PoolGet)
	if time.Since(start) < time.Millisecond {
		t.Error("delay rule did not sleep")
	}
}

func TestEnableRestoresPreviousSchedule(t *testing.T) {
	outer := NewSchedule(1)
	restoreOuter := Enable(outer)
	inner := NewSchedule(2)
	restoreInner := Enable(inner)
	Hit(PoolEvict)
	restoreInner()
	Hit(PoolEvict)
	restoreOuter()
	if inner.Hits(PoolEvict) != 1 || outer.Hits(PoolEvict) != 1 {
		t.Errorf("hits inner=%d outer=%d, want 1 and 1", inner.Hits(PoolEvict), outer.Hits(PoolEvict))
	}
	if Enabled() {
		t.Error("restore left a schedule installed")
	}
}

func TestPanicErrorCapturesStackAndUnwraps(t *testing.T) {
	inj := &Injected{Point: OracleEval, N: 7, Seed: 9}
	pe := NewPanicError("test.site", inj)
	if !strings.Contains(pe.Error(), "test.site") {
		t.Errorf("Error() = %q, want the site name", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("no stack captured")
	}
	var got *Injected
	if !errors.As(pe, &got) || got.N != 7 {
		t.Errorf("errors.As failed to recover the injected cause: %v", pe)
	}
	// Non-error panic values unwrap to nil without exploding.
	if err := NewPanicError("x", "boom").Unwrap(); err != nil {
		t.Errorf("string panic unwrapped to %v", err)
	}
}

func TestUnknownPointRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSchedule accepted an out-of-range point")
		}
	}()
	NewSchedule(0, Rule{Point: numPoints})
}
