package server

import (
	"math"
	"testing"

	"repro/internal/strictjson"
)

// FuzzOptimizeRequest fuzzes the optimize-request decoder end to end:
// arbitrary bytes must either produce a validated request or an error the
// handler maps to a 400 — never a panic. Accepted requests must satisfy
// the decoder's own invariants (exactly one payload, bounded knobs). The
// seed corpus under testdata/fuzz/FuzzOptimizeRequest pins both payload
// kinds and each rejection class.
func FuzzOptimizeRequest(f *testing.F) {
	seeds := []string{
		`{"sql": "SELECT l.tax FROM lineitem l"}`,
		`{"spec": {"queries": 4, "fan_out": 3, "shape": "star"}, "strategy": "marginal"}`,
		`{"spec": {"seed": 7, "queries": 8, "shape": "mixed", "fan_out": 4, "sharing": 0.5, "select_frac": 0.8, "agg_frac": 0.5}, "strategy": "lazymarginal", "time_budget_ms": 100, "oracle_call_budget": 500}`,
		`{"tenant": "acme", "sf": 100, "extended_ops": true, "sql": "SELECT l.tax FROM lineitem l", "plan_text": true}`,
		`{"sql": "x", "spec": {"queries": 1, "fan_out": 2}}`, // both payloads
		`{}`,                                     // neither payload
		`{"sql": "x", "strategy": "exhaustive"}`, // unservable strategy
		`{"sql": "x", "sf": -1}`,                 // bad scale factor
		`{"sql": "x", "sf": 1e308}`,              // absurd scale factor
		`{"sql": "x", "parallelism": 4}`,         // removed field: strict decode
		`{"sql": "x", "oracle_call_budget": 0}`,  // zero is meaningful
		`{"sql": "x", "unknown_field": 1}`,       // strict decode
		`{"sql": "x"} []`,                        // trailing data
		`{"spec": {"queries": 2, "fan_out": 2, "shape": "donut"}}`,
		`not json at all`,
		`[1,2,3]`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeOptimizeRequest(data, 1024)
		if err != nil {
			return // rejected: the handler answers 400
		}
		if (req.Spec == nil) == (req.SQL == "") {
			t.Fatalf("accepted request without exactly one payload: %+v", req)
		}
		if req.Spec != nil {
			if err := req.Spec.Validate(); err != nil {
				t.Fatalf("accepted request with invalid spec: %v", err)
			}
			if req.Spec.Queries > 1024 {
				t.Fatalf("accepted request above the query cap: %d", req.Spec.Queries)
			}
		}
		if _, err := parseStrategy(req.Strategy); err != nil {
			t.Fatalf("accepted request with unservable strategy %q", req.Strategy)
		}
		if req.TimeBudgetMS < 0 || (req.OracleCallBudget != nil && *req.OracleCallBudget < 0) {
			t.Fatalf("accepted request with negative budget: %+v", req)
		}
	})
}

// FuzzTenantConfig fuzzes the tenant-table decode path the mqoserver
// -tenants flag feeds: arbitrary bytes must either produce a table whose
// every entry survives Validate, or an error — never a panic, and never a
// config the scheduler cannot run. Accepted entries must normalize into
// runnable scheduler parameters (positive concurrency, weight and queue
// wait; a finite non-negative quota bucket), and a controller built from
// the table must answer a stats snapshot without tripping on them. The
// seed corpus under testdata/fuzz/FuzzTenantConfig pins one exemplar per
// rejection class.
func FuzzTenantConfig(f *testing.F) {
	seeds := []string{
		`{"acme": {"max_concurrent": 8, "queue_depth": 32, "queue_wait_ms": 500}}`,
		`{"acme": {"call_quota": 100, "refill_per_sec": 2.5}}`,
		`{"bulk": {"weight": 3, "deadline_ms": 0}, "slo": {"weight": 1, "deadline_ms": 250}}`,
		`{"a": {"queue_depth": -1}}`,       // meaningful negative: no queueing
		`{"a": {"weight": -1}}`,            // invalid: negative weight
		`{"a": {"refill_per_sec": -0.5}}`,  // invalid: negative rate
		`{"a": {"refill_per_sec": 1e309}}`, // JSON overflow, decode error
		`{"a": {"deadline_ms": -1}}`,       // invalid: negative deadline
		`{"a": {"call_quota": -9}}`,        // invalid: negative quota
		`{"*": {"max_concurrent": 2}}`,     // "*" configures unnamed tenants
		`{"a": {"refill_rate": 1}}`,        // unknown field, strict decode
		`{"a": {}} {"b": {}}`,              // trailing data
		`{"a": {"max_concurrent": 1e3}}`,   // float into int field
		`{"": {"weight": 2}}`,              // empty tenant name decodes; names are vetted elsewhere
		`{"a": {"call_quota": 9223372036854775807, "refill_per_sec": 1e300}}`,
		`{}`,
		`null`,
		`[1]`,
		`not json`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var table map[string]TenantConfig
		if err := strictjson.Decode(data, &table); err != nil {
			return // rejected: the loader reports the config error
		}
		ok := true
		for name, tc := range table {
			if err := tc.Validate(); err != nil {
				ok = false // the loader refuses the whole table
				continue
			}
			n := tc.normalize()
			if n.MaxConcurrent < 1 || n.Weight < 1 {
				t.Fatalf("tenant %q: validated config normalizes to unservable limits: %+v", name, n)
			}
			if n.QueueDepth < 0 || n.queueWait() <= 0 {
				t.Fatalf("tenant %q: validated config normalizes to a broken queue: %+v", name, n)
			}
			if n.CallQuota < 0 {
				t.Fatalf("tenant %q: validated config has an unaccountable quota bucket %d", name, n.CallQuota)
			}
		}
		if !ok {
			return
		}
		// A controller built over the accepted table must hold up: every
		// declared tenant answers a stats snapshot (exercising the lazy
		// bucket fill and next-admit math under extreme rates).
		a := NewScheduler(table, SchedConfig{Slots: 1})
		st := a.Stats()
		for name := range table {
			if name == anyTenant {
				continue // configures unnamed tenants; not a tenant itself
			}
			s, found := st[name]
			if !found {
				t.Fatalf("declared tenant %q missing from stats", name)
			}
			if s.NextAdmitMS < 0 || math.IsNaN(s.QuotaRemaining) {
				t.Fatalf("tenant %q: stats snapshot broke on its config: %+v", name, s)
			}
		}
	})
}
