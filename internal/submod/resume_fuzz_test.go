package submod

import (
	"context"
	"fmt"
	"testing"
)

// FuzzResumeAnywhere stops a lazy driver anywhere, any number of times, and
// resumes each stop from its checkpoint until the run completes: the chained
// run must reproduce the uninterrupted one exactly (assertResumeMatches).
// The bytes pick the instance seed and size (≤ 16 elements), one of the four
// lazy drivers, and the chain of stops, two bytes a stop: its kind — a call
// budget k, a context cancelled after k evaluations (mid-batch), a yield at
// stop check k%8+1 that is never re-granted, or a pause at that check that
// is — and k. A stop that lands before the driver has anything to snapshot
// (a marginal driver's decomposition) leaves no checkpoint; the chain then
// starts the driver afresh. A pause is no stop: its hop must end as the same
// hop unpaused does, with no checkpoint and the same oracle calls, which
// ends the chain.
func FuzzResumeAnywhere(f *testing.F) {
	f.Add([]byte{0, 11, 0, 0, 13})
	f.Add([]byte{1, 15, 1, 1, 3, 2, 1, 0, 5})
	f.Add([]byte{2, 9, 2, 2, 1, 2, 1, 2, 1})
	f.Add([]byte{3, 12, 3, 1, 1, 1, 2, 1, 3, 0, 0, 2, 2})
	f.Add([]byte{4, 16, 0, 0, 0, 1, 20, 2, 4, 0, 17})
	f.Add([]byte{5, 14, 1, 0, 9, 3, 2})
	f.Add([]byte{6, 13, 2, 3, 0})
	f.Add([]byte{7, 12, 2, 2, 0, 3, 0}) // Greedy: a failed yield, then a pause, each before round 1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		seed, n := int64(data[0]), 1+int(data[1])%16
		dc := resumableDrivers[int(data[2])%len(resumableDrivers)]
		stops := data[3:]
		if len(stops) > 64 {
			stops = stops[:64]
		}
		ref := dc.run(randomInstance(seed, n))

		var cp *Checkpoint
		// hopRun runs one hop on o: the driver afresh, or a resume of cp.
		hopRun := func(label string, o *Oracle) Result {
			if cp == nil {
				return dc.run(o)
			}
			got, err := ResumeLazy(o, roundTripCheckpoint(t, cp))
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			return got
		}
		for hop := 0; ; hop++ {
			label := fmt.Sprintf("%s seed %d n %d hop %d", dc.name, seed, n, hop)
			o := randomInstance(seed, n)
			var pause *yielder
			if 2*hop+1 < len(stops) {
				kind, k := stops[2*hop]%4, int(stops[2*hop+1])
				switch kind {
				case 0:
					o.SetControl(&Control{MaxCalls: k, HasMaxCalls: true})
				case 1:
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					o = NewOracle(&cancelAfterFunc{inner: o.F, left: k + 1, cancel: cancel})
					o.SetControl(&Control{Ctx: ctx})
				case 2, 3:
					y := &yielder{at: k%8 + 1, fail: kind == 2}
					o.SetControl(&Control{Yielder: y})
					if kind == 3 {
						pause = y
					}
				}
			}
			got := hopRun(label, o)
			if pause != nil {
				plainO := randomInstance(seed, n)
				plain := hopRun(label, plainO)
				if got.Stopped != StopNone || got.Checkpoint != nil || !got.Set.Equal(plain.Set) || got.Value != plain.Value ||
					got.Iterations != plain.Iterations || got.Pruned != plain.Pruned || got.Stale != plain.Stale ||
					got.Reused != plain.Reused || o.Calls != plainO.Calls {
					t.Fatalf("%s: paused %d times: %+v after %d calls, unpaused %+v after %d", label, pause.yields, got, o.Calls, plain, plainO.Calls)
				}
			}
			if got.Stopped == StopNone {
				assertResumeMatches(t, label, ref, got)
				return
			}
			if got.Checkpoint == nil && (cp != nil || !got.Set.Empty()) {
				t.Fatalf("%s: stopped (%v) on %v without a checkpoint", label, got.Stopped, got.Set.Sorted())
			}
			cp = got.Checkpoint
		}
	})
}
