package main

import "strings"

// layerMetrics turns a traced phase (spans, counters) and the untraced
// phase run beside it into the per-layer metrics. A layer the workload does
// not execute has no spans or counts and reads 0.
func layerMetrics(u, t *phase, setup *observer) map[string]float64 {
	dur, self := spanTimes(t.obs.spans)
	c, series := t.obs.counts, t.obs.series
	ops := float64(len(t.samples))
	perOp := func(name string) float64 { return ratio(c[name], ops) }
	spanMS := func(name string) float64 { return median(dur[name]) }
	lat := u.latencies()
	uP50, tP50 := median(lat), median(t.latencies())

	v := map[string]float64{
		"latency_ms_p90": percentile(lat, 0.90),
		"latency_ms_p99": percentile(lat, 0.99),

		"workload.generate_ms": median(setup.series["workload.generate_ms"]),
		"parser.parse_ms":      median(setup.series["parser.parse_ms"]),

		"memo.build_ms":         spanMS("memo.build"),
		"memo.alloc_mb":         median(series["memo.alloc_mb"]),
		"memo.groups":           median(series["memo.groups"]),
		"memo.exprs":            median(series["memo.exprs"]),
		"memo.shareable":        median(series["memo.shareable"]),
		"memo.recipe_hit_ratio": ratio(c["memo.recipe_hits"], c["memo.recipe_lookups"]),

		"core.setup_ms":    spanMS("core.setup"),
		"core.search_ms":   spanMS("core.search"),
		"core.finalize_ms": spanMS("core.finalize"),
		"core.opt_ms":      median(series["core.opt_ms"]),

		"submod.oracle_calls":        perOp("submod.oracle_calls"),
		"submod.rounds":              perOp("submod.rounds"),
		"submod.stale":               perOp("submod.stale"),
		"submod.reused":              perOp("submod.reused"),
		"submod.pruned":              perOp("submod.pruned"),
		"submod.calls_per_selection": ratio(c["submod.oracle_calls"], c["submod.selections"]),

		"physical.bc_calls":         perOp("physical.bc_calls"),
		"physical.us_per_bc_call":   ratio(1000*sum(series["core.opt_ms"]), c["physical.bc_calls"]),
		"physical.bestcost_warm_ns": c["physical.bestcost_warm_ns"],
		"physical.plan_ms":          spanMS("physical.plan"),
		"physical.publish_ms":       spanMS("physical.publish"),
		"physical.l1_hits":          perOp("physical.l1_hits"),
		"physical.l2_hits":          perOp("physical.l2_hits"),
		"physical.computed_keys":    perOp("physical.computed_keys"),
		"physical.cache_hit_ratio": ratio(c["physical.l1_hits"]+c["physical.l2_hits"],
			c["physical.l1_hits"]+c["physical.l2_hits"]+c["physical.computed_keys"]),
		"physical.l2_entries": c["physical.l2_entries"],
		"physical.l2_resets":  c["physical.l2_resets"],

		"session.unattributed_ms":    median(u.obs.series["session.unattributed_ms"]),
		"session.shared_oracle_hits": c["session.shared_oracle_hits"],

		"server.handler_ms":    spanMS("server.handler"),
		"server.queue_wait_ms": spanMS("server.queue_wait"),
		"server.build_ms":      spanMS("server.build"),
		"server.opt_ms":        spanMS("server.opt"),
		"server.extract_ms":    spanMS("server.extract"),
		"server.overhead_ms":   median(self["server.handler"]),
		"server.http_ms":       median(self["client.request"]),
		"server.response_kb":   median(series["server.response_kb"]),
		"server.rejected":      c["server.rejected"],
		"server.failed":        c["server.failed"],
		"server.pool_sessions": c["server.pool_sessions"],
		"server.preemptions":   c["server.preemptions"],

		"batcher.mean_batch_size":   ratio(c["batcher.members"], c["batcher.requests"]),
		"batcher.batched_share":     ratio(c["batcher.batched"], c["batcher.requests"]),
		"batcher.calls_per_request": ratio(c["submod.oracle_calls"], c["batcher.requests"]),
		"batcher.shared_credit_ms":  ratio(c["batcher.shared_credit_ms"], c["batcher.requests"]),

		"cluster.hop_ms":   median(self["cluster.router"]),
		"cluster.affinity": ratio(c["cluster.on_owner"], c["cluster.routed"]),
		"cluster.retries":  c["cluster.retries"],

		"bench.clients":            float64(t.clients),
		"bench.trace_overhead_pct": 100 * ratio(tP50-uP50, uP50),
	}
	// Share of the busiest replica over an even share: 1 is balanced.
	served, busiest := 0.0, 0.0
	for name, n := range c {
		if strings.HasPrefix(name, "cluster.served/") {
			served++
			busiest = max(busiest, n)
		}
	}
	v["cluster.replica_imbalance"] = ratio(busiest*served, c["cluster.routed"])

	// The trace's check on itself: what the spans account for, over what
	// the untraced caller waited.
	if roots := dur["session.optimize"]; len(roots) > 0 {
		staged := make([]float64, len(roots))
		for i := range roots {
			staged[i] = roots[i] - self["session.optimize"][i]
		}
		v["session.optimize_ms"] = uP50
		v["session.stage_cover"] = ratio(median(staged), uP50)
	} else {
		v["session.stage_cover"] = ratio(
			median(self["client.request"])+median(self["cluster.router"])+spanMS("server.handler"),
			spanMS("client.request"))
	}
	for name, x := range u.runtimeLayer() {
		v[name] = x
	}
	return v
}
