package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"strconv"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// libWorkload is a workload that calls the optimizer as a library, from one
// caller.
type libWorkload struct {
	queries int
	sharing float64
	// pool is how many distinct batches one long-lived session cycles
	// through, and sessions how many such sessions the run rotates over
	// (each with its own pool, so more sessions mean more distinct inputs
	// behind the medians without changing any session's working set).
	// sessions == 0 optimizes each of the pool's batches on a fresh session.
	pool, sessions int
}

// specSeed derives the generator seed of the k-th distinct input.
func specSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// generate builds the k-th distinct input of a run and times the generator.
func generate(seed int64, k, queries int, sharing float64, o *observer) (workload.Spec, *logical.Batch, error) {
	spec := workload.DefaultSpec(queries, sharing)
	spec.Seed = specSeed(seed, k)
	t0 := time.Now()
	b, err := workload.Generate(spec)
	if err != nil {
		return spec, nil, fmt.Errorf("generating batch %d: %w", k, err)
	}
	o.observe("workload.generate_ms", ms(float64(time.Since(t0))))
	return spec, b, nil
}

// stages is the state a repro.Session keeps between calls, held by the
// harness so that a traced run can make Session.Optimize's calls itself.
type stages struct {
	cat   *catalog.Catalog
	model cost.Model
	bc    *memo.BuildCache
	sc    *physical.SharedCache
}

func newStages(cat *catalog.Catalog, model cost.Model) *stages {
	return &stages{cat: cat, model: model, bc: memo.NewBuildCache(), sc: physical.NewSharedCache()}
}

// heapAllocBytes reads the cumulative allocation counter without stopping
// the world (runtime.ReadMemStats would, inside a timed op).
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// replayed is the outcome of one replay of Session.Optimize's stages.
type replayed struct {
	opt  *volcano.Optimizer
	res  core.Result
	plan *physical.ConsolidatedPlan
	wall time.Duration
	done time.Time
}

// replay does what Session.Optimize does — build the DAG through the
// session's sub-DAG cache, attach the session's cost cache, run the
// strategy, extract the plan, publish the cache — through the same public
// calls, with one span around each, so every stage of the call has a clock.
// t0 is when the op began (a cold op makes its session state first).
func (st *stages) replay(b *logical.Batch, t0 time.Time, o *observer) (*replayed, error) {
	op := opIDs.Add(1)
	h0, m0 := st.bc.Stats()
	a0 := heapAllocBytes()
	tb := time.Now()
	opt, err := volcano.NewOptimizer(st.cat, st.model, b, memo.WithBuildCache(st.bc))
	tr := time.Now()
	if err != nil {
		return nil, err
	}
	o.observe("memo.alloc_mb", float64(heapAllocBytes()-a0)/1e6)
	opt.Searcher.AttachSharedCache(st.sc)
	res := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	tp := time.Now()
	plan := opt.Plan(res.MatSet())
	tu := time.Now()
	opt.Searcher.PublishCache()
	t1 := time.Now()

	root := o.span(0, op, "session.optimize", t0, t1)
	o.span(root, op, "memo.build", tb, tr)
	run := o.span(root, op, "core.run", tr, tp)
	coreSpans(o, run, op, tr, res.Telemetry)
	o.span(root, op, "physical.plan", tp, tu)
	o.span(root, op, "physical.publish", tu, t1)

	h1, m1 := st.bc.Stats()
	o.add("memo.recipe_hits", float64(h1-h0))
	o.add("memo.recipe_lookups", float64(h1-h0+m1-m0))
	o.observe("core.opt_ms", ms(float64(res.OptTime)))
	o.observe("memo.groups", float64(opt.Memo.NumGroups()))
	o.observe("memo.exprs", float64(opt.Memo.NumExprs()))
	o.observe("memo.shareable", float64(len(opt.Shareable())))
	return &replayed{opt: opt, res: res, plan: plan, wall: t1.Sub(t0), done: t1}, nil
}

// coreSpans lays the run's phase times, as its Telemetry reports them, end
// to end from start as children of the span that timed the run.
func coreSpans(o *observer, parent, op int64, start time.Time, tel core.Telemetry) {
	search := start.Add(tel.SetupTime)
	finalize := search.Add(tel.SearchTime)
	o.span(parent, op, "core.setup", start, search)
	o.span(parent, op, "core.search", search, finalize)
	o.span(parent, op, "core.finalize", finalize, start.Add(tel.TotalTime))
}

func newRecord(cost, volcano float64, materialized int, t core.Telemetry) record {
	return record{
		CostMS: cost, VolcanoMS: volcano, Materialized: materialized,
		OracleCalls: t.OracleCalls, BCCalls: t.BCCalls,
		Rounds: t.Rounds, Pruned: t.Pruned, Stale: t.Stale, Reused: t.Reused,
	}
}

func recordOf(res core.Result) record {
	return newRecord(res.Cost, res.VolcanoCost, len(res.Materialized), res.Telemetry)
}

// addWork counts one traced op into the layer counters: r's deterministic
// work, and the schedule-dependent cache traffic of its telemetry.
func addWork(o *observer, r record, t core.Telemetry) {
	o.add("submod.oracle_calls", float64(r.OracleCalls))
	o.add("submod.rounds", float64(r.Rounds))
	o.add("submod.stale", float64(r.Stale))
	o.add("submod.reused", float64(r.Reused))
	o.add("submod.pruned", float64(r.Pruned))
	o.add("submod.selections", float64(r.Materialized))
	o.add("physical.bc_calls", float64(r.BCCalls))
	o.add("physical.l1_hits", float64(t.CacheHits))
	o.add("physical.l2_hits", float64(t.SharedHits))
	o.add("physical.computed_keys", float64(t.ComputedKeys))
	o.add("session.shared_oracle_hits", float64(t.SharedOracleHits))
}

// bestCostWarm times single BestCost calls on a searcher that has already
// priced every set asked of it: the oracle's cache-hit path.
func bestCostWarm(opt *volcano.Optimizer, chosen []memo.GroupID) float64 {
	sets := []physical.NodeSet{opt.NewNodeSet(), opt.NewNodeSet(chosen...)}
	for _, g := range chosen {
		sets = append(sets, opt.NewNodeSet(g))
	}
	for _, s := range sets {
		opt.BestCost(s)
	}
	const calls = 20000
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		opt.BestCost(sets[i%len(sets)])
	}
	return float64(time.Since(t0).Nanoseconds()) / calls
}

// setup builds the workload's inputs, warms its sessions and returns the
// loop's op: Session.Optimize itself, or when traced the replay of its
// stages.
func (w libWorkload) setup(name string, seed int64, traced bool, o *observer) (*instance, error) {
	gold, err := loadGolden(name, seed)
	if err != nil {
		return nil, err
	}
	cat, model := tpcd.Catalog(1), cost.Default()
	cold := w.sessions == 0
	nsess := max(w.sessions, 1)
	batches := make([]*logical.Batch, w.pool*nsess)
	for k := range batches {
		if _, batches[k], err = generate(seed, k, w.queries, w.sharing, o); err != nil {
			return nil, err
		}
	}
	inst := &instance{clients: 1, inputs: len(batches), close: func() {}}

	if !traced {
		sessions := make([]*repro.Session, nsess)
		for i := range sessions {
			sessions[i], _ = repro.NewSession(cat, model) // fails only on a nil catalog
		}
		inst.op = func(_, i int, o *observer) sample {
			k := i % len(batches)
			s := sample{key: strconv.Itoa(k)}
			t0 := time.Now()
			sess := sessions[k/w.pool]
			if cold {
				sess, _ = repro.NewSession(cat, model)
			}
			res, err := sess.Optimize(context.Background(), batches[k])
			s.done = time.Now()
			s.wall = s.done.Sub(t0)
			if err != nil {
				s.fail = err.Error()
				return s
			}
			o.observe("session.unattributed_ms", ms(float64(s.wall-res.BuildTime-res.OptTime-res.ExtractTime)))
			s.rec = recordOf(res.Result)
			s.fail = gold.check(s.key, s.rec, res.Plan.Total, res.Validate())
			return s
		}
	} else {
		replays := make([]*stages, nsess)
		for i := range replays {
			replays[i] = newStages(cat, model)
		}
		entries := make([]int, nsess)
		resets := 0
		var last *replayed
		inst.op = func(_, i int, o *observer) sample {
			k := i % len(batches)
			si := k / w.pool
			s := sample{key: strconv.Itoa(k)}
			t0 := time.Now()
			if cold {
				replays[si] = newStages(cat, model)
			}
			r, err := replays[si].replay(batches[k], t0, o)
			if err != nil {
				s.fail = err.Error()
				return s
			}
			s.done, s.wall, s.rec = r.done, r.wall, recordOf(r.res)
			addWork(o, s.rec, r.res.Telemetry)
			s.fail = gold.check(s.key, s.rec, r.plan.Total, r.opt.Searcher.ValidatePlan(r.plan, r.res.MatSet()))
			last = r
			if !cold {
				// A shard that overflows is dropped whole, so a session's
				// entry count falling between two of its ops is a reset.
				n := replays[si].sc.Len()
				if n < entries[si] {
					resets++
				}
				entries[si] = n
			}
			return s
		}
		inst.finish = func(o *observer) {
			total := 0
			for _, st := range replays {
				total += st.sc.Len()
			}
			o.add("physical.l2_entries", float64(total)/float64(nsess))
			o.add("physical.l2_resets", float64(resets))
			if last != nil {
				o.add("physical.bestcost_warm_ns", bestCostWarm(last.opt, last.res.Materialized))
			}
		}
		defer func() { resets = 0 }() // the warm-up's resets are not the phase's
	}

	// Warm-up: a warm workload sees every input once, so the measured ops
	// all run against filled caches; a cold one only warms the process.
	warm := len(batches)
	if cold {
		warm = 2
	}
	for i := 0; i < warm; i++ {
		if s := inst.op(0, i, newObserver()); s.fail != "" {
			return nil, fmt.Errorf("warm-up op %d: %s", i, s.fail)
		}
	}
	return inst, nil
}
