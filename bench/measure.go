package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// record is the deterministic outcome of optimizing one distinct input: a
// pure function of (batch, strategy), so two runs of one seed must agree on
// it exactly (costs to 1e-9 relative) whatever the machine or the schedule.
type record struct {
	CostMS       float64 `json:"cost_ms"`
	VolcanoMS    float64 `json:"volcano_cost_ms"`
	Materialized int     `json:"materialized"`
	OracleCalls  int     `json:"oracle_calls"`
	BCCalls      int     `json:"bc_calls"`
	Rounds       int     `json:"rounds"`
	Pruned       int     `json:"pruned"`
	Stale        int     `json:"stale"`
	Reused       int     `json:"reused"`
}

// planOnly keeps the fields that describe the chosen plan.
func (r record) planOnly() record {
	return record{CostMS: r.CostMS, VolcanoMS: r.VolcanoMS, Materialized: r.Materialized}
}

// same compares two records: costs to 1e-9 relative, counts exactly.
func (r record) same(o record) bool {
	cost, volcano := o.CostMS, o.VolcanoMS
	o.CostMS, o.VolcanoMS = r.CostMS, r.VolcanoMS
	return r == o && sameCost(r.CostMS, cost) && sameCost(r.VolcanoMS, volcano)
}

// sample is what one op hands back to the measuring loop.
type sample struct {
	done time.Time     // completion, for binning into slices
	wall time.Duration // latency timed at the caller
	key  string        // which distinct input ("" = nothing to compare)
	rec  record
	fail string // why the op counts as failed; "" = correct
}

// instance is one set-up workload: clients closed-loop callers each run
// op(c, i) for i = 0, 1, … until the phase's time is up.
type instance struct {
	clients int
	inputs  int // distinct inputs the ops cycle through
	// lockstep starts every client's i-th op together (the batched
	// workload: one lane, one body, all clients).
	lockstep bool
	op       func(c, i int, o *observer) sample
	finish   func(o *observer) // end-of-phase layer readings; may be nil
	close    func()
}

// mark is a reading of the process clocks, taken by client 0 between two of
// its ops so that a slice holds whole ops of that client.
type mark struct {
	t   time.Time
	cpu time.Duration
	mem runtime.MemStats
}

func takeMark() mark {
	var m mark
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&m.mem)
	m.t = time.Now()
	return m
}

// sliceTime is the least a slice of the measured phase lasts. A slice also
// holds at least one turn through the workload's distinct inputs — a shorter
// one would measure which inputs it happened to get — so the serving
// workloads and warm_fit get two slices a second, warm_spill one every two
// seconds, and cold_batch, whose turn takes most of the phase, a single one.
const sliceTime = 500 * time.Millisecond

// quietShare picks, of a phase's slices, the one a time metric is read off:
// the value a tenth of the way in from the best slice. The machine is a few
// cores of a shared host, and what its other tenants do only ever slows a
// slice down, in bursts of one to a few seconds: the median slice follows
// those bursts (ten runs of unchanged code spread 5–14 % on serve_*), the
// quiet tenth does not (2–5 %), and unlike the single best slice it is not
// one lucky reading.
const quietShare = 0.1

// phase is everything one measured phase produced.
type phase struct {
	clients int
	samples []sample
	marks   []mark // slice boundaries: marks[k] .. marks[k+1]
	obs     *observer
}

// barrier lets the clients of a lockstep workload start each op together and
// agree on when to stop: wait returns once all n have arrived, with true if
// any of them voted to stop.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	stop    bool // votes gathered for the round being formed
	result  bool // outcome of the last round formed
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait(vote bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stop = b.stop || vote
	b.waiting++
	if b.waiting == b.n {
		b.result, b.stop, b.waiting = b.stop, false, 0
		b.gen++
		b.cond.Broadcast()
		return b.result
	}
	for gen := b.gen; gen == b.gen; {
		b.cond.Wait()
	}
	return b.result
}

// drive runs the closed loop: client c calls op(c, i) for i = 0, 1, … until
// over(i) says so, handing each sample to each (called on c's goroutine).
func drive(inst *instance, over func(i int) bool, each func(c int, s sample, o *observer)) *observer {
	observers := make([]*observer, inst.clients)
	bar := newBarrier(inst.clients)
	var wg sync.WaitGroup
	for c := 0; c < inst.clients; c++ {
		observers[c] = newObserver()
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				stop := over(i)
				if inst.lockstep {
					stop = bar.wait(stop)
				}
				if stop {
					return
				}
				each(c, inst.op(c, i, observers[c]), observers[c])
			}
		}(c)
	}
	wg.Wait()
	all := newObserver()
	for _, o := range observers {
		all.merge(o)
	}
	return all
}

// warmUp runs every client through n ops, unmeasured.
func warmUp(inst *instance, n int) error {
	var mu sync.Mutex
	var failure string
	drive(inst, func(i int) bool { return i >= n }, func(_ int, s sample, _ *observer) {
		if s.fail != "" {
			mu.Lock()
			failure = s.fail
			mu.Unlock()
		}
	})
	if failure != "" {
		return fmt.Errorf("warm-up: %s", failure)
	}
	return nil
}

// runPhase drives the instance's closed loop for the given time.
func runPhase(inst *instance, seconds float64) *phase {
	p := &phase{clients: inst.clients}
	span := time.Duration(seconds * float64(time.Second))
	turn := (inst.inputs + inst.clients - 1) / inst.clients // client 0's ops per turn
	perClient := make([][]sample, inst.clients)
	p.marks = append(p.marks, takeMark())
	start := p.marks[0].t
	deadline := start.Add(span)
	sinceMark := 0
	p.obs = drive(inst, func(int) bool { return !time.Now().Before(deadline) }, func(c int, s sample, _ *observer) {
		perClient[c] = append(perClient[c], s)
		if c != 0 {
			return
		}
		sinceMark++
		if sinceMark >= turn && s.done.Sub(p.marks[len(p.marks)-1].t) >= sliceTime {
			p.marks = append(p.marks, takeMark())
			sinceMark = 0
		}
	})
	if sinceMark < turn && len(p.marks) > 1 {
		p.marks = p.marks[:len(p.marks)-1] // fold a short tail into the slice before it
	}
	p.marks = append(p.marks, takeMark())
	for c := range perClient {
		p.samples = append(p.samples, perClient[c]...)
	}
	if inst.finish != nil {
		inst.finish(p.obs)
	}
	return p
}

func (p *phase) latencies() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = ms(float64(s.wall))
	}
	return out
}

// endToEnd computes the bounded metrics of an untraced phase (all but
// setup_s, which the caller timed).
func (p *phase) endToEnd() map[string]float64 {
	type slice struct {
		lat     []float64
		correct int
		busyMS  float64
	}
	n := len(p.marks) - 1
	slices := make([]slice, n)
	for _, s := range p.samples {
		k := 0
		for k < n-1 && s.done.After(p.marks[k+1].t) {
			k++
		}
		l := ms(float64(s.wall))
		slices[k].lat = append(slices[k].lat, l)
		slices[k].busyMS += l
		if s.fail == "" {
			slices[k].correct++
		}
	}
	var thr, p50, cpu, alloc []float64
	for k, w := range slices {
		if len(w.lat) == 0 {
			continue
		}
		ops := float64(len(w.lat))
		// Closed loop: every client is inside an op except while the
		// harness checks a result, so ops ÷ (time spent in ops ÷ clients)
		// is the rate the callers saw, free of that checking time.
		thr = append(thr, float64(w.correct)*float64(p.clients)*1000/w.busyMS)
		p50 = append(p50, median(w.lat))
		cpu = append(cpu, ms(float64(p.marks[k+1].cpu-p.marks[k].cpu))/ops)
		alloc = append(alloc, float64(p.marks[k+1].mem.TotalAlloc-p.marks[k].mem.TotalAlloc)/1e6/ops)
	}
	// Plan quality over the distinct inputs optimized, each counted once, so
	// that it does not depend on how many times the loop came round.
	var cost, volcano float64
	seen := map[string]bool{}
	for _, s := range p.samples {
		if s.fail == "" && !seen[s.key] {
			seen[s.key] = true
			cost += s.rec.CostMS
			volcano += s.rec.VolcanoMS
		}
	}
	// What the neighbours do does not change what an op allocates, so that
	// one is the plain median.
	return map[string]float64{
		"throughput_ops_s": quantile(thr, 1-quietShare),
		"latency_ms_p50":   quantile(p50, quietShare),
		"cpu_ms_per_op":    quantile(cpu, quietShare),
		"alloc_mb_per_op":  median(alloc),
		"plan_cost_ratio":  ratio(cost, volcano),
	}
}

// runtimeLayer reads the Go runtime's share of a phase off its marks.
func (p *phase) runtimeLayer() map[string]float64 {
	first, last := p.marks[0].mem, p.marks[len(p.marks)-1].mem
	peak := uint64(0)
	for _, m := range p.marks {
		peak = max(peak, m.mem.HeapInuse)
	}
	return map[string]float64{
		"runtime.gc_pause_ms":   ms(float64(last.PauseTotalNs - first.PauseTotalNs)),
		"runtime.gc_cycles":     float64(last.NumGC - first.NumGC),
		"runtime.heap_peak_mb":  float64(peak) / 1e6,
		"runtime.allocs_per_op": ratio(float64(last.Mallocs-first.Mallocs), float64(len(p.samples))),
	}
}

// calibIters makes one calibration spin take about half a second on the
// reference box (2.1 GHz). The smoke test shortens it.
var calibIters = 280_000_000

var calibSink uint64

// calibrate times a fixed single-thread integer spin. The same work before
// and after a workload should take the same time; when it does not, some
// other tenant of the machine was busy and the workload's numbers are
// marked noisy.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(float64(time.Since(t0)))
}
