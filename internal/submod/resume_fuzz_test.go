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
// budget k, a context cancelled after k evaluations (mid-batch), or a
// preemption at progress report k — and k. A stop that lands before the
// driver has anything to snapshot leaves no checkpoint; the chain then
// starts the driver afresh.
func FuzzResumeAnywhere(f *testing.F) {
	f.Add([]byte{0, 11, 0, 0, 13})
	f.Add([]byte{1, 15, 1, 1, 3, 2, 1, 0, 5})
	f.Add([]byte{2, 9, 2, 2, 1, 2, 1, 2, 1})
	f.Add([]byte{3, 12, 3, 1, 1, 1, 2, 1, 3, 0, 0, 2, 2})
	f.Add([]byte{4, 16, 0, 0, 0, 1, 20, 2, 4, 0, 17})
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
		for hop := 0; ; hop++ {
			label := fmt.Sprintf("%s seed %d n %d hop %d", dc.name, seed, n, hop)
			o := randomInstance(seed, n)
			if 2*hop+1 < len(stops) {
				kind, k := stops[2*hop]%3, int(stops[2*hop+1])
				switch kind {
				case 0:
					o.SetControl(&Control{MaxCalls: k, HasMaxCalls: true})
				case 1:
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					o = NewOracle(&cancelAfterFunc{inner: o.F, left: k + 1, cancel: cancel})
					o.SetControl(&Control{Ctx: ctx})
				case 2:
					seen := 0
					o.SetControl(&Control{
						OnProgress: func(Progress) { seen++ },
						Preempt:    func() bool { return seen > k%8 },
					})
				}
			}
			var got Result
			if cp == nil {
				got = dc.run(o)
			} else {
				var err error
				if got, err = ResumeLazy(o, roundTripCheckpoint(t, cp)); err != nil {
					t.Fatalf("%s: resume: %v", label, err)
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
