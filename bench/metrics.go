package main

import (
	"math"
	"sort"
)

// metric is one declared benchmark metric. BENCHMARK.json repeats the two
// tables below; the smoke test keeps them in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the reference by which it may worsen
}

// endToEnd is what a caller of the system sees, per workload. Every one is
// printed (non-zero) on every workload by an untraced run. The time bounds
// are the contract's cap: over ten seeds the quartile spread is 2–8 % of
// the median on a quiet hour of the reference box and 7–17 % on a bad one
// (README "Reference numbers").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.15},
	{"plan_cost_ratio", "ratio", "lower", 0.15},
}

// perLayer is printed by a traced run; a layer a workload does not execute
// (or that cannot be seen from outside the server) reads 0.
var perLayer = []metric{
	// Tails and failures: end-to-end quantities kept unbounded, because a
	// bounded metric must be valid (≥ 10 samples beyond the percentile) and
	// non-zero on every workload.
	{"latency_ms_p90", "ms", "lower", 0},
	{"latency_ms_p99", "ms", "lower", 0},
	{"error_rate", "ratio", "lower", 0},

	{"workload.generate_ms", "ms", "lower", 0},
	{"parser.parse_ms", "ms", "lower", 0},

	{"memo.build_ms", "ms", "lower", 0},
	{"memo.alloc_mb", "MB", "lower", 0},
	{"memo.groups", "count", "lower", 0},
	{"memo.exprs", "count", "lower", 0},
	{"memo.shareable", "count", "lower", 0},
	{"memo.recipe_hit_ratio", "ratio", "higher", 0},

	{"core.setup_ms", "ms", "lower", 0},
	{"core.search_ms", "ms", "lower", 0},
	{"core.finalize_ms", "ms", "lower", 0},
	{"core.opt_ms", "ms", "lower", 0},

	{"submod.oracle_calls", "count", "lower", 0},
	{"submod.rounds", "count", "lower", 0},
	{"submod.stale", "count", "lower", 0},
	{"submod.reused", "count", "higher", 0},
	{"submod.pruned", "count", "higher", 0},
	{"submod.calls_per_selection", "ratio", "lower", 0},

	{"physical.bc_calls", "count", "lower", 0},
	{"physical.us_per_bc_call", "us", "lower", 0},
	{"physical.bestcost_warm_ns", "ns", "lower", 0},
	{"physical.plan_ms", "ms", "lower", 0},
	{"physical.publish_ms", "ms", "lower", 0},
	{"physical.l1_hits", "count", "higher", 0},
	{"physical.l2_hits", "count", "higher", 0},
	{"physical.computed_keys", "count", "lower", 0},
	{"physical.cache_hit_ratio", "ratio", "higher", 0},
	{"physical.l2_entries", "count", "lower", 0},
	{"physical.l2_resets", "count", "lower", 0},

	{"session.optimize_ms", "ms", "lower", 0},
	{"session.unattributed_ms", "ms", "lower", 0},
	{"session.stage_cover", "ratio", "higher", 0},
	{"session.shared_oracle_hits", "count", "higher", 0},

	{"server.handler_ms", "ms", "lower", 0},
	{"server.queue_wait_ms", "ms", "lower", 0},
	{"server.build_ms", "ms", "lower", 0},
	{"server.opt_ms", "ms", "lower", 0},
	{"server.extract_ms", "ms", "lower", 0},
	{"server.overhead_ms", "ms", "lower", 0},
	{"server.http_ms", "ms", "lower", 0},
	{"server.response_kb", "kB", "lower", 0},
	{"server.rejected", "count", "lower", 0},
	{"server.failed", "count", "lower", 0},
	{"server.pool_sessions", "count", "lower", 0},
	{"server.preemptions", "count", "lower", 0},

	{"batcher.mean_batch_size", "count", "higher", 0},
	{"batcher.batched_share", "ratio", "higher", 0},
	{"batcher.calls_per_request", "count", "lower", 0},
	{"batcher.shared_credit_ms", "ms", "higher", 0},

	{"cluster.hop_ms", "ms", "lower", 0},
	{"cluster.affinity", "ratio", "higher", 0},
	{"cluster.retries", "count", "lower", 0},
	{"cluster.replica_imbalance", "ratio", "lower", 0},

	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.heap_peak_mb", "MB", "lower", 0},
	{"runtime.allocs_per_op", "count", "lower", 0},
	{"bench.calib_ms", "ms", "lower", 0},
	{"bench.clients", "count", "higher", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the two middles), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the value a share q of the way from the least to the greatest
// of xs, between neighbours in proportion; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// percentile is the nearest-rank p-quantile of xs, or 0 when fewer than ten
// samples lie beyond it (a tail read off a handful of samples is noise).
func percentile(xs []float64, p float64) float64 {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if n-rank < 10 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(ns float64) float64 { return ns / 1e6 }
