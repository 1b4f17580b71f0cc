package repro

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// attributionDigest folds what a shared run decided for its members — each
// one's Cost, VolcanoCost and SharedCredit bit for bit, and its Set — into
// one FNV-1a value.
func attributionDigest(attrs []Attribution) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> uint(8*i)) & 0xff
			h *= 1099511628211
		}
	}
	for _, a := range attrs {
		mix(math.Float64bits(a.Cost))
		mix(math.Float64bits(a.VolcanoCost))
		mix(math.Float64bits(a.SharedCredit))
		for _, g := range a.Set.Groups() {
			mix(uint64(g))
		}
		mix(^uint64(0))
	}
	return h
}

// TestRunHandsWorkersBackLast pins the borrow contract of a session call:
// the run evaluates — search, extraction, attribution — on workers it takes
// as it needs them, and hands them back once, with the publish that ends the
// call; a run a panic stopped hands back none. The free list therefore reads
// the same after Optimize and after OptimizeShared over one group or three
// (attribution, which evaluates two more cost breakdowns, runs before the
// publish on the run's own worker 0), and the three-group attributions are
// the ones recorded before attribution moved ahead of the publish.
func TestRunHandsWorkersBackLast(t *testing.T) {
	ctx := context.Background()
	withProcs(t, 1)
	for _, par := range []int{1, 2} {
		runtime.GOMAXPROCS(par) // a cold run fans out to par workers, and the free list keeps par
		want := par
		groups := memberBatches(t, workload.Star, 0.25, 42)
		for name, call := range map[string]func(*Session) error{
			"Optimize":         func(s *Session) error { _, err := s.Optimize(ctx, tpcd.BQ(2)); return err },
			"OptimizeShared/1": func(s *Session) error { _, err := s.OptimizeShared(ctx, groups[:1]); return err },
			"OptimizeShared/3": func(s *Session) error { _, err := s.OptimizeShared(ctx, groups); return err },
		} {
			sess := newTestSession(t)
			for i := 0; i < 2; i++ { // cold, then on the workers the first call handed back
				if err := call(sess); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := sess.cache.FreeWorkers(); got != want {
					t.Fatalf("%s at GOMAXPROCS %d, call %d: %d free workers, want %d", name, par, i+1, got, want)
				}
			}
		}
		sess := newTestSession(t)
		restore := faultinject.Enable(faultinject.NewSchedule(1,
			faultinject.Rule{Point: faultinject.OracleEval, N: 5, Panic: true}))
		_, err := sess.OptimizeShared(ctx, groups)
		restore()
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("injected panic surfaced as %v", err)
		}
		if got := sess.cache.FreeWorkers(); got != 0 {
			t.Fatalf("a faulted run at GOMAXPROCS %d left %d free workers", par, got)
		}
	}

	// Recorded at the parent of the change that moved attribution ahead of the
	// publish (float bits: amd64).
	pinned := map[string]uint64{
		"star_0.25": 0x416ddaf67d02b09a, "star_0.75": 0xe7d9ee944b392517,
		"chain_0.25": 0x7cf7acdcb649ee37, "chain_0.75": 0x8f1c14c17a0db924,
		"snowflake_0.25": 0x416ddaf67d02b09a, "snowflake_0.75": 0xe7d9ee944b392517,
	}
	for _, shape := range []workload.Shape{workload.Star, workload.Chain, workload.Snowflake} {
		for _, sharing := range []float64{0.25, 0.75} {
			name := fmt.Sprintf("%v_%.2f", shape, sharing)
			sres, err := newTestSession(t).OptimizeShared(ctx, memberBatches(t, shape, sharing, 42))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := attributionDigest(sres.Attributions); got != pinned[name] && runtime.GOARCH == "amd64" {
				t.Errorf("%s: attribution digest %#x, pinned %#x", name, got, pinned[name])
			}
		}
	}
}
