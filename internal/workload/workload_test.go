package workload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

// TestWorkloadDeterminism: the same spec must generate byte-identical
// batches, and the seed must actually matter.
func TestWorkloadDeterminism(t *testing.T) {
	for _, spec := range []Spec{
		DefaultSpec(16, 0.75),
		{Seed: 7, Queries: 9, Shape: Star, FanOut: 4, Sharing: 0.3, SelectFrac: 1, AggFrac: 1},
		{Seed: 7, Queries: 9, Shape: Chain, FanOut: 6, Sharing: 0, SelectFrac: 0.5, AggFrac: 0},
		{Seed: 7, Queries: 9, Shape: Snowflake, FanOut: 8, Sharing: 1, SelectFrac: 0.9, AggFrac: 0.5},
	} {
		a := Fingerprint(MustGenerate(spec))
		b := Fingerprint(MustGenerate(spec))
		if a != b {
			t.Fatalf("spec %+v: two generations differ:\n%s\nvs\n%s", spec, a, b)
		}
		spec2 := spec
		spec2.Seed++
		if Fingerprint(MustGenerate(spec2)) == a {
			t.Errorf("spec %+v: changing the seed left the batch identical", spec)
		}
	}
}

// TestWorkloadQueriesDistinct: even at maximal sharing no two generated
// queries may be identical — the per-query variant constant (a distinct
// real on a range column) must keep them apart, exactly like the paper's
// BQ variant pairs. The chain shape at 60 queries is the regression case:
// rotating the variant onto an equality column (region.name, 5 categories)
// used to floor-collide constants and emit duplicate queries.
func TestWorkloadQueriesDistinct(t *testing.T) {
	for _, shape := range []Shape{Star, Chain, Snowflake, Mixed} {
		spec := Spec{Seed: 3, Queries: 60, Shape: shape, FanOut: MaxFanOut(shape),
			Sharing: 1, SelectFrac: 1, AggFrac: 0.5}
		batch := MustGenerate(spec)
		seen := map[string]string{}
		for _, q := range batch.Queries {
			fp := Fingerprint(&logical.Batch{Queries: []*logical.Query{{Name: "", Root: q.Root}}})
			if prev, dup := seen[fp]; dup {
				t.Errorf("%s: queries %s and %s are identical", shape, prev, q.Name)
			}
			seen[fp] = q.Name
		}
	}
}

// TestWorkloadSpecValidation: malformed specs must be rejected with an
// error, not generate garbage.
func TestWorkloadSpecValidation(t *testing.T) {
	valid := DefaultSpec(4, 0.5)
	if err := valid.Validate(); err != nil {
		t.Fatalf("DefaultSpec invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero queries", func(s *Spec) { s.Queries = 0 }},
		{"negative queries", func(s *Spec) { s.Queries = -3 }},
		{"fanout too small", func(s *Spec) { s.FanOut = 1 }},
		{"fanout beyond star", func(s *Spec) { s.Shape = Star; s.FanOut = MaxFanOut(Star) + 1 }},
		{"fanout beyond chain", func(s *Spec) { s.Shape = Chain; s.FanOut = MaxFanOut(Chain) + 1 }},
		{"sharing below range", func(s *Spec) { s.Sharing = -0.01 }},
		{"sharing above range", func(s *Spec) { s.Sharing = 1.01 }},
		{"select frac above range", func(s *Spec) { s.SelectFrac = 2 }},
		{"agg frac below range", func(s *Spec) { s.AggFrac = -1 }},
		{"unknown shape", func(s *Spec) { s.Shape = Mixed + 1 }},
	}
	for _, tc := range cases {
		spec := valid
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, spec)
		}
		if _, err := Generate(spec); err == nil {
			t.Errorf("%s: Generate accepted %+v", tc.name, spec)
		}
	}
}

// TestWorkloadValidatesAgainstCatalog: every generated query must pass
// logical validation against the TPCD catalog for all shapes and fan-outs.
func TestWorkloadValidatesAgainstCatalog(t *testing.T) {
	cat := tpcd.Catalog(1)
	for _, shape := range []Shape{Star, Chain, Snowflake, Mixed} {
		for fanOut := 2; fanOut <= MaxFanOut(shape); fanOut++ {
			spec := DefaultSpec(6, 0.5)
			spec.Shape = shape
			spec.FanOut = fanOut
			batch := MustGenerate(spec)
			if len(batch.Queries) != spec.Queries {
				t.Fatalf("%s/%d: got %d queries, want %d", shape, fanOut, len(batch.Queries), spec.Queries)
			}
			for _, q := range batch.Queries {
				if err := q.Validate(cat); err != nil {
					t.Errorf("%s/%d: query %s invalid: %v", shape, fanOut, q.Name, err)
				}
			}
		}
	}
}

// TestWorkloadRoundTrip: a generated batch must optimize end to end —
// DAG build, MarginalGreedy, plan extraction — and the extracted plan must
// pass the independent cost audit.
func TestWorkloadRoundTrip(t *testing.T) {
	cat := tpcd.Catalog(1)
	spec := DefaultSpec(12, 0.75)
	batch := MustGenerate(spec)
	opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	if res.Cost > res.VolcanoCost+1e-6 {
		t.Errorf("MarginalGreedy cost %v exceeds no-MQO cost %v", res.Cost, res.VolcanoCost)
	}
	plan := opt.Plan(res.MatSet())
	if plan == nil {
		t.Fatal("nil consolidated plan")
	}
	if err := opt.Searcher.ValidatePlan(plan, res.MatSet()); err != nil {
		t.Errorf("extracted plan fails validation: %v", err)
	}
	if d := plan.Total - res.Cost; d > 1e-6 || d < -1e-6 {
		t.Errorf("plan total %v != oracle cost %v", plan.Total, res.Cost)
	}
}

// TestWorkloadSharingGrowsUnification: the sharing coefficient must move
// the quantities it exists to control — higher sharing unifies more
// subexpressions (a smaller combined DAG for the same query count) and
// raises the relative MQO benefit.
func TestWorkloadSharingGrowsUnification(t *testing.T) {
	cat := tpcd.Catalog(1)
	run := func(sharing float64) (groups int, relBenefit float64) {
		spec := DefaultSpec(16, sharing)
		opt, err := volcano.NewOptimizer(cat, cost.Default(), MustGenerate(spec))
		if err != nil {
			t.Fatal(err)
		}
		r := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
		return opt.Memo.NumGroups(), r.Benefit / r.VolcanoCost
	}
	loGroups, loBenefit := run(0)
	hiGroups, hiBenefit := run(1)
	if hiGroups >= loGroups {
		t.Errorf("DAG did not shrink with sharing: %d groups at σ=0, %d at σ=1", loGroups, hiGroups)
	}
	if hiBenefit <= loBenefit {
		t.Errorf("relative MQO benefit did not grow with sharing: %.3f at σ=0, %.3f at σ=1",
			loBenefit, hiBenefit)
	}
}

// TestWorkloadParitySerialBatched: Greedy and MarginalGreedy must pick the
// same materialization set and cost whether the oracle rounds run serially
// (GOMAXPROCS 1) or on the concurrent batched path.
func TestWorkloadParitySerialBatched(t *testing.T) {
	cat := tpcd.Catalog(1)
	batch := MustGenerate(DefaultSpec(8, 0.75))
	for _, strat := range []core.Strategy{core.Greedy, core.MarginalGreedy} {
		run := func(par int) core.Result {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(par))
			opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
			if err != nil {
				t.Fatal(err)
			}
			return core.RunWith(context.Background(), opt, strat, core.Config{})
		}
		serial, batched := run(1), run(4)
		if serial.Cost != batched.Cost {
			t.Errorf("%s: serial cost %v != batched cost %v", strat, serial.Cost, batched.Cost)
		}
		if fmt.Sprint(serial.Materialized) != fmt.Sprint(batched.Materialized) {
			t.Errorf("%s: serial materializations %v != batched %v",
				strat, serial.Materialized, batched.Materialized)
		}
	}
}

// TestWorkloadSkewDeterminism: the skew knob must keep generation
// deterministic — same spec, same batch — while actually changing the
// batch relative to Skew=0, and skewed batches must still be valid and
// pairwise distinct (the variant constant keeps the hot cohort apart).
func TestWorkloadSkewDeterminism(t *testing.T) {
	spec := DefaultSpec(24, 0.5)
	spec.Skew = 0.8
	a := Fingerprint(MustGenerate(spec))
	if b := Fingerprint(MustGenerate(spec)); a != b {
		t.Fatal("skewed generations from one seed differ")
	}
	flat := spec
	flat.Skew = 0
	if Fingerprint(MustGenerate(flat)) == a {
		t.Error("Skew=0.8 generated the same batch as Skew=0")
	}
	cat := tpcd.Catalog(1)
	batch := MustGenerate(spec)
	seen := map[string]bool{}
	for _, q := range batch.Queries {
		if err := q.Validate(cat); err != nil {
			t.Errorf("skewed query %s invalid: %v", q.Name, err)
		}
		fp := Fingerprint(&logical.Batch{Queries: []*logical.Query{{Name: "", Root: q.Root}}})
		if seen[fp] {
			t.Errorf("skewed batch repeats query %s", q.Name)
		}
		seen[fp] = true
	}
}

// TestWorkloadSkewConcentratesSharing: the knob exists to concentrate the
// combined DAG — the hot cohort unifies into one template's groups, so a
// fully skewed batch must compile to fewer groups than an unskewed one.
func TestWorkloadSkewConcentratesSharing(t *testing.T) {
	cat := tpcd.Catalog(1)
	groups := func(skew float64) int {
		spec := DefaultSpec(24, 0.5)
		spec.Skew = skew
		opt, err := volcano.NewOptimizer(cat, cost.Default(), MustGenerate(spec))
		if err != nil {
			t.Fatal(err)
		}
		return opt.Memo.NumGroups()
	}
	lo, hi := groups(0), groups(1)
	if hi >= lo {
		t.Errorf("full skew did not concentrate the DAG: %d groups at Skew=0, %d at Skew=1", lo, hi)
	}
}

// TestWorkloadSkewZeroGolden pins the Skew=0 random stream: adding the
// knob (or any future one) must leave previously generated batches
// byte-identical. The digest was produced by the generator before the
// Skew field existed.
func TestWorkloadSkewZeroGolden(t *testing.T) {
	const want = "4b24082210e0262488ebb01e79164601894fa3a0a2e6beffe5c70f63140e0eeb"
	fp := sha256.Sum256([]byte(Fingerprint(MustGenerate(DefaultSpec(64, 0.25)))))
	if got := hex.EncodeToString(fp[:]); got != want {
		t.Fatalf("DefaultSpec(64, 0.25) fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}

// TestWorkloadRunDeterminism: the full pipeline — generation plus
// optimization — must reproduce the same materialization set across runs
// from one seed.
func TestWorkloadRunDeterminism(t *testing.T) {
	cat := tpcd.Catalog(1)
	spec := DefaultSpec(10, 0.5)
	run := func() core.Result {
		opt, err := volcano.NewOptimizer(cat, cost.Default(), MustGenerate(spec))
		if err != nil {
			t.Fatal(err)
		}
		return core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
	}
	a, b := run(), run()
	if a.Cost != b.Cost || fmt.Sprint(a.Materialized) != fmt.Sprint(b.Materialized) {
		t.Errorf("two runs from one seed diverge: %v/%v vs %v/%v",
			a.Cost, a.Materialized, b.Cost, b.Materialized)
	}
}
