package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/volcano"
)

func TestExperimentTimesTables(t *testing.T) {
	t1, err := Experiment1Times(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 6 {
		t.Errorf("Experiment1Times rows = %d", len(t1.Rows))
	}
	t2, err := Experiment2Times(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 4 {
		t.Errorf("Experiment2Times rows = %d", len(t2.Rows))
	}
	// The MQO algorithms do more optimization work than plain Volcano
	// (Figure 4c), stated in counts: on every batch Greedy and
	// MarginalGreedy spend oracle calls and Volcano spends none. (Their
	// wall-clock columns are sub-millisecond readings that one descheduling
	// reorders.)
	for i, row := range t1.Rows {
		if atof(t, row[4]) <= 0 || atof(t, row[5]) <= 0 {
			t.Errorf("%s: Greedy made %s oracle calls and MarginalGreedy %s, want both > 0", row[0], row[4], row[5])
		}
		opt, err := volcano.NewOptimizer(tpcd.Catalog(1), cost.Default(), tpcd.BQ(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if n := core.RunWith(context.Background(), opt, core.Volcano, core.Config{}).OracleCalls; n != 0 {
			t.Errorf("%s: Volcano made %d oracle calls, want 0", row[0], n)
		}
	}
}

func TestMemorySweepTable(t *testing.T) {
	tb, err := MemorySweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// More memory can only help: 128 MB Volcano ≤ 6 MB Volcano.
	if atof(t, tb.Rows[1][1]) > atof(t, tb.Rows[0][1]) {
		t.Errorf("128MB Volcano cost above 6MB: %v vs %v", tb.Rows[1][1], tb.Rows[0][1])
	}
	// Sharing still pays with 128 MB.
	if atof(t, tb.Rows[1][2]) >= atof(t, tb.Rows[1][1]) {
		t.Error("no MQO gain at 128MB")
	}
}

func TestExtendedOperatorsTable(t *testing.T) {
	tb, err := ExtendedOperators()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	// Extra operators can only reduce every column.
	for col := 1; col <= 3; col++ {
		if atof(t, tb.Rows[1][col]) > atof(t, tb.Rows[0][col]) {
			t.Errorf("extended ops increased column %d: %v vs %v",
				col, tb.Rows[1][col], tb.Rows[0][col])
		}
	}
}

func TestBaselinesTable(t *testing.T) {
	tb, err := Baselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		volcano := atof(t, row[1])
		volcanoSH := atof(t, row[2])
		matAll := atof(t, row[3])
		greedy := atof(t, row[4])
		// The lineage ordering: Volcano ≥ Volcano-SH ≥ Greedy, and
		// MaterializeAll is dramatically worse than Greedy on batches with
		// large shareable joins (BQ2, BQ3).
		if volcanoSH > volcano || greedy > volcanoSH {
			t.Errorf("%s: ordering broken: %v ≥ %v ≥ %v", row[0], volcano, volcanoSH, greedy)
		}
		if row[0] != "BQ1" && matAll < 10*greedy {
			t.Errorf("%s: MaterializeAll (%v) not dramatically worse than Greedy (%v)", row[0], matAll, greedy)
		}
	}
	// Exhaustive shown on BQ1 must match or beat Greedy.
	if ex := tb.Rows[0][6]; ex != "-" {
		if atof(t, ex) > atof(t, tb.Rows[0][4]) {
			t.Errorf("exhaustive %v worse than Greedy %v", ex, tb.Rows[0][4])
		}
	}
}

func TestCardinalityConstraintTable(t *testing.T) {
	tb, err := CardinalityConstraint()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
	prev := 1e300
	for _, row := range tb.Rows {
		c := atof(t, row[1])
		if c > prev+1e-9 {
			t.Errorf("cost not non-increasing in k: %v after %v", c, prev)
		}
		prev = c
		if row[3] != "true" {
			t.Errorf("k=%s: Theorem 4 reduction changed the answer", row[0])
		}
	}
}

func TestRuleAblationTable(t *testing.T) {
	tb, err := RuleAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows: %d", len(tb.Rows))
	}
}
