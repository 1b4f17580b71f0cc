package repro

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// The golden table below was produced by the seed implementation of the
// bestCost oracle (map NodeSets, string order keys, sequential scans)
// before the interned-order/bitset/parallel rewrite. The rewrite is a pure
// representation change, so every strategy must reproduce these costs
// bit-for-bit (costs are compared after %.6f formatting, which the seed
// values were recorded with) and choose exactly the same materialization
// sets, for every TPCD batch at both scale factors.
type parityRow struct {
	sf    float64
	bq    int
	strat core.Strategy
	cost  string
	mat   []memo.GroupID
}

var parityGolden = []parityRow{
	{sf: 1, bq: 1, strat: core.Volcano, cost: "1435311.200000", mat: []memo.GroupID{}},
	{sf: 1, bq: 1, strat: core.Greedy, cost: "922424.600000", mat: []memo.GroupID{4}},
	{sf: 1, bq: 1, strat: core.LazyGreedyStrategy, cost: "922424.600000", mat: []memo.GroupID{4}},
	{sf: 1, bq: 1, strat: core.MarginalGreedy, cost: "922424.600000", mat: []memo.GroupID{4}},
	{sf: 1, bq: 1, strat: core.LazyMarginalGreedy, cost: "922424.600000", mat: []memo.GroupID{4}},
	{sf: 1, bq: 1, strat: core.MaterializeAll, cost: "1062318.000000", mat: []memo.GroupID{1, 2, 4}},
	{sf: 1, bq: 1, strat: core.VolcanoSH, cost: "965098.800000", mat: []memo.GroupID{1, 2}},
	{sf: 1, bq: 2, strat: core.Volcano, cost: "2761742.400000", mat: []memo.GroupID{}},
	{sf: 1, bq: 2, strat: core.Greedy, cost: "1701941.200000", mat: []memo.GroupID{4, 25}},
	{sf: 1, bq: 2, strat: core.LazyGreedyStrategy, cost: "1701941.200000", mat: []memo.GroupID{4, 25}},
	{sf: 1, bq: 2, strat: core.MarginalGreedy, cost: "1707836.400000", mat: []memo.GroupID{1, 2, 25}},
	{sf: 1, bq: 2, strat: core.LazyMarginalGreedy, cost: "1707836.400000", mat: []memo.GroupID{1, 2, 25}},
	{sf: 1, bq: 2, strat: core.MaterializeAll, cost: "7177059952.800000", mat: []memo.GroupID{1, 2, 4, 12, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}},
	{sf: 1, bq: 2, strat: core.VolcanoSH, cost: "2287319.000000", mat: []memo.GroupID{1, 2, 12}},
	{sf: 1, bq: 3, strat: core.Volcano, cost: "4035948.400000", mat: []memo.GroupID{}},
	{sf: 1, bq: 3, strat: core.Greedy, cost: "2406938.600000", mat: []memo.GroupID{4, 25, 65}},
	{sf: 1, bq: 3, strat: core.LazyGreedyStrategy, cost: "2406938.600000", mat: []memo.GroupID{4, 25, 65}},
	{sf: 1, bq: 3, strat: core.MarginalGreedy, cost: "2405775.000000", mat: []memo.GroupID{1, 2, 25, 65}},
	{sf: 1, bq: 3, strat: core.LazyMarginalGreedy, cost: "2405775.000000", mat: []memo.GroupID{1, 2, 25, 65}},
	{sf: 1, bq: 3, strat: core.MaterializeAll, cost: "7180352795.199998", mat: []memo.GroupID{1, 2, 4, 12, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65}},
	{sf: 1, bq: 3, strat: core.VolcanoSH, cost: "3247291.200000", mat: []memo.GroupID{1, 2, 18, 52, 62, 63}},
	{sf: 1, bq: 4, strat: core.Volcano, cost: "5384756.800000", mat: []memo.GroupID{}},
	{sf: 1, bq: 4, strat: core.Greedy, cost: "3595097.800000", mat: []memo.GroupID{4, 25, 65, 98}},
	{sf: 1, bq: 4, strat: core.LazyGreedyStrategy, cost: "3595097.800000", mat: []memo.GroupID{4, 25, 65, 98}},
	{sf: 1, bq: 4, strat: core.MarginalGreedy, cost: "3600994.000000", mat: []memo.GroupID{1, 2, 25, 65, 96, 98}},
	{sf: 1, bq: 4, strat: core.LazyMarginalGreedy, cost: "3600994.000000", mat: []memo.GroupID{1, 2, 25, 65, 96, 98}},
	{sf: 1, bq: 4, strat: core.MaterializeAll, cost: "7786550753.799999", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100}},
	{sf: 1, bq: 4, strat: core.VolcanoSH, cost: "4612448.200000", mat: []memo.GroupID{1, 2, 33, 52, 62, 63, 96}},
	{sf: 1, bq: 5, strat: core.Volcano, cost: "6832476.400000", mat: []memo.GroupID{}},
	{sf: 1, bq: 5, strat: core.Greedy, cost: "4634667.000000", mat: []memo.GroupID{4, 25, 65, 82, 96}},
	{sf: 1, bq: 5, strat: core.LazyGreedyStrategy, cost: "4634667.000000", mat: []memo.GroupID{4, 25, 65, 82, 96}},
	{sf: 1, bq: 5, strat: core.MarginalGreedy, cost: "4590276.000000", mat: []memo.GroupID{1, 2, 25, 65, 96, 98, 134}},
	{sf: 1, bq: 5, strat: core.LazyMarginalGreedy, cost: "4590276.000000", mat: []memo.GroupID{1, 2, 25, 65, 96, 98, 134}},
	{sf: 1, bq: 5, strat: core.MaterializeAll, cost: "7788531755.799998", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100, 119, 121, 125, 127, 130, 132, 134}},
	{sf: 1, bq: 5, strat: core.VolcanoSH, cost: "6060167.800000", mat: []memo.GroupID{1, 2, 33, 52, 62, 63, 96}},
	{sf: 1, bq: 6, strat: core.Volcano, cost: "8801966.600000", mat: []memo.GroupID{}},
	{sf: 1, bq: 6, strat: core.Greedy, cost: "6166970.000000", mat: []memo.GroupID{4, 12, 25, 65, 82, 96, 152}},
	{sf: 1, bq: 6, strat: core.LazyGreedyStrategy, cost: "6166970.000000", mat: []memo.GroupID{4, 12, 25, 65, 82, 96, 152}},
	{sf: 1, bq: 6, strat: core.MarginalGreedy, cost: "6111166.800000", mat: []memo.GroupID{1, 2, 12, 25, 65, 96, 98, 134, 152}},
	{sf: 1, bq: 6, strat: core.LazyMarginalGreedy, cost: "6111166.800000", mat: []memo.GroupID{1, 2, 12, 25, 65, 96, 98, 134, 152}},
	{sf: 1, bq: 6, strat: core.MaterializeAll, cost: "7790118440.000000", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100, 119, 121, 125, 127, 130, 132, 134, 152, 159}},
	{sf: 1, bq: 6, strat: core.VolcanoSH, cost: "7534017.800000", mat: []memo.GroupID{1, 2, 12, 33, 52, 62, 63, 96, 152}},
	{sf: 100, bq: 1, strat: core.Volcano, cost: "150502461.600000", mat: []memo.GroupID{}},
	{sf: 100, bq: 1, strat: core.Greedy, cost: "103477015.600000", mat: []memo.GroupID{1, 2}},
	{sf: 100, bq: 1, strat: core.LazyGreedyStrategy, cost: "103477015.600000", mat: []memo.GroupID{1, 2}},
	{sf: 100, bq: 1, strat: core.MarginalGreedy, cost: "113929982.600000", mat: []memo.GroupID{4}},
	{sf: 100, bq: 1, strat: core.LazyMarginalGreedy, cost: "113929982.600000", mat: []memo.GroupID{4}},
	{sf: 100, bq: 1, strat: core.MaterializeAll, cost: "116006219.200000", mat: []memo.GroupID{1, 2, 4}},
	{sf: 100, bq: 1, strat: core.VolcanoSH, cost: "103477015.600000", mat: []memo.GroupID{1, 2}},
	{sf: 100, bq: 2, strat: core.Volcano, cost: "443058078.800000", mat: []memo.GroupID{}},
	{sf: 100, bq: 2, strat: core.Greedy, cost: "265784010.200000", mat: []memo.GroupID{4, 25}},
	{sf: 100, bq: 2, strat: core.LazyGreedyStrategy, cost: "265784010.200000", mat: []memo.GroupID{4, 25}},
	{sf: 100, bq: 2, strat: core.MarginalGreedy, cost: "265784010.200000", mat: []memo.GroupID{4, 25}},
	{sf: 100, bq: 2, strat: core.LazyMarginalGreedy, cost: "265784010.200000", mat: []memo.GroupID{4, 25}},
	{sf: 100, bq: 2, strat: core.MaterializeAll, cost: "71705546762218.984375", mat: []memo.GroupID{1, 2, 4, 12, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32}},
	{sf: 100, bq: 2, strat: core.VolcanoSH, cost: "333647777.000000", mat: []memo.GroupID{1, 2, 12, 19, 25}},
	{sf: 100, bq: 3, strat: core.Volcano, cost: "577976594.400000", mat: []memo.GroupID{}},
	{sf: 100, bq: 3, strat: core.Greedy, cost: "338190953.800000", mat: []memo.GroupID{4, 25, 65}},
	{sf: 100, bq: 3, strat: core.LazyGreedyStrategy, cost: "338190953.800000", mat: []memo.GroupID{4, 25, 65}},
	{sf: 100, bq: 3, strat: core.MarginalGreedy, cost: "340457545.000000", mat: []memo.GroupID{4, 25, 64, 65}},
	{sf: 100, bq: 3, strat: core.LazyMarginalGreedy, cost: "340457545.000000", mat: []memo.GroupID{4, 25, 64, 65}},
	{sf: 100, bq: 3, strat: core.MaterializeAll, cost: "71706015512878.390625", mat: []memo.GroupID{1, 2, 4, 12, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65}},
	{sf: 100, bq: 3, strat: core.VolcanoSH, cost: "410540984.600000", mat: []memo.GroupID{1, 2, 12, 19, 25, 63, 64}},
	{sf: 100, bq: 4, strat: core.Volcano, cost: "725929341.600000", mat: []memo.GroupID{}},
	{sf: 100, bq: 4, strat: core.Greedy, cost: "471464247.600000", mat: []memo.GroupID{4, 25, 65, 98}},
	{sf: 100, bq: 4, strat: core.LazyGreedyStrategy, cost: "471464247.600000", mat: []memo.GroupID{4, 25, 65, 98}},
	{sf: 100, bq: 4, strat: core.MarginalGreedy, cost: "474195858.800000", mat: []memo.GroupID{4, 25, 64, 65, 96, 98}},
	{sf: 100, bq: 4, strat: core.LazyMarginalGreedy, cost: "474195858.800000", mat: []memo.GroupID{4, 25, 64, 65, 96, 98}},
	{sf: 100, bq: 4, strat: core.MaterializeAll, cost: "77691430227062.187500", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100}},
	{sf: 100, bq: 4, strat: core.VolcanoSH, cost: "557615696.600000", mat: []memo.GroupID{1, 2, 12, 19, 25, 33, 63, 64}},
	{sf: 100, bq: 5, strat: core.Volcano, cost: "928089428.800000", mat: []memo.GroupID{}},
	{sf: 100, bq: 5, strat: core.Greedy, cost: "620564009.200000", mat: []memo.GroupID{4, 25, 65, 98, 127}},
	{sf: 100, bq: 5, strat: core.LazyGreedyStrategy, cost: "620564009.200000", mat: []memo.GroupID{4, 25, 65, 98, 127}},
	{sf: 100, bq: 5, strat: core.MarginalGreedy, cost: "623296290.600000", mat: []memo.GroupID{4, 25, 64, 65, 96, 98, 130, 134}},
	{sf: 100, bq: 5, strat: core.LazyMarginalGreedy, cost: "623296290.600000", mat: []memo.GroupID{4, 25, 64, 65, 96, 98, 130, 134}},
	{sf: 100, bq: 5, strat: core.MaterializeAll, cost: "77691684044139.968750", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100, 119, 121, 125, 127, 130, 132, 134}},
	{sf: 100, bq: 5, strat: core.VolcanoSH, cost: "759775783.800000", mat: []memo.GroupID{1, 2, 12, 19, 25, 33, 63, 64}},
	{sf: 100, bq: 6, strat: core.Volcano, cost: "1198197899.300000", mat: []memo.GroupID{}},
	{sf: 100, bq: 6, strat: core.Greedy, cost: "844243115.300000", mat: []memo.GroupID{4, 12, 25, 65, 98, 127, 152}},
	{sf: 100, bq: 6, strat: core.LazyGreedyStrategy, cost: "844243115.300000", mat: []memo.GroupID{4, 12, 25, 65, 98, 127, 152}},
	{sf: 100, bq: 6, strat: core.MarginalGreedy, cost: "846974957.700000", mat: []memo.GroupID{4, 12, 25, 64, 65, 96, 98, 134, 152}},
	{sf: 100, bq: 6, strat: core.LazyMarginalGreedy, cost: "846974957.700000", mat: []memo.GroupID{4, 12, 25, 64, 65, 96, 98, 134, 152}},
	{sf: 100, bq: 6, strat: core.MaterializeAll, cost: "77691924395338.468750", mat: []memo.GroupID{1, 2, 4, 12, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 52, 54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 82, 84, 86, 88, 90, 91, 92, 94, 96, 97, 98, 100, 119, 121, 125, 127, 130, 132, 134, 152, 159}},
	{sf: 100, bq: 6, strat: core.VolcanoSH, cost: "978212268.900000", mat: []memo.GroupID{1, 2, 12, 19, 25, 33, 63, 64, 152}},
}

func runStrategy(t *testing.T, sf float64, bq int, strat core.Strategy) core.Result {
	t.Helper()
	opt, err := volcano.NewOptimizer(tpcd.Catalog(sf), cost.Default(), tpcd.BQ(bq))
	if err != nil {
		t.Fatal(err)
	}
	return core.RunWith(context.Background(), opt, strat, core.Config{})
}

func checkParity(t *testing.T, row parityRow, res core.Result) {
	t.Helper()
	if got := fmt.Sprintf("%.6f", res.Cost); got != row.cost {
		t.Errorf("SF%g BQ%d %s: cost %s, seed oracle said %s", row.sf, row.bq, row.strat, got, row.cost)
	}
	got := append([]memo.GroupID(nil), res.Materialized...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != len(row.mat) {
		t.Fatalf("SF%g BQ%d %s: materialized %v, seed oracle chose %v", row.sf, row.bq, row.strat, got, row.mat)
	}
	for i := range got {
		if got[i] != row.mat[i] {
			t.Fatalf("SF%g BQ%d %s: materialized %v, seed oracle chose %v", row.sf, row.bq, row.strat, got, row.mat)
		}
	}
}

// TestOracleParityGolden checks every strategy against the seed-oracle
// golden results across BQ1–BQ6 at SF1 and SF100.
func TestOracleParityGolden(t *testing.T) {
	for _, row := range parityGolden {
		row := row
		t.Run(fmt.Sprintf("SF%g/BQ%d/%s", row.sf, row.bq, row.strat), func(t *testing.T) {
			checkParity(t, row, runStrategy(t, row.sf, row.bq, row.strat))
		})
	}
}

// TestParallelScanParity forces a multi-worker ratio scan (GOMAXPROCS 4,
// whatever the machine) and checks the same goldens for the strategies with
// batched rounds; under -race this exercises the concurrent oracle.
func TestParallelScanParity(t *testing.T) {
	withProcs(t, 4)
	for _, row := range parityGolden {
		if row.sf != 1 || (row.strat != core.Greedy && row.strat != core.MarginalGreedy) {
			continue
		}
		row := row
		t.Run(fmt.Sprintf("BQ%d/%s", row.bq, row.strat), func(t *testing.T) {
			checkParity(t, row, runStrategy(t, row.sf, row.bq, row.strat))
		})
	}
}

// TestComputedKeysFlatInP: the workers of a fanned-out batch share one cost
// cache, so a second or a fourth worker does not recompute what a neighbour
// holds. A cold MarginalGreedy run over a generated 32-query batch computes
// at GOMAXPROCS 2 and 4 at most 5 % more keys than at 1 (only two workers
// racing to the same miss compute a key twice), and chooses the same plan.
func TestComputedKeysFlatInP(t *testing.T) {
	cat := tpcd.Catalog(1)
	batch := workload.MustGenerate(workload.DefaultSpec(32, 0.25))
	var base core.Result
	for _, par := range []int{1, 2, 4} {
		withProcs(t, par)
		opt, err := volcano.NewOptimizer(cat, cost.Default(), batch)
		if err != nil {
			t.Fatal(err)
		}
		res := core.RunWith(context.Background(), opt, core.MarginalGreedy, core.Config{})
		t.Logf("GOMAXPROCS %d: computed_keys %d", par, res.Telemetry.ComputedKeys)
		if par == 1 {
			base = res
			continue
		}
		if res.Cost != base.Cost || fmt.Sprint(res.Materialized) != fmt.Sprint(base.Materialized) {
			t.Fatalf("GOMAXPROCS %d: cost %v of %v, at 1 %v of %v", par, res.Cost, res.Materialized, base.Cost, base.Materialized)
		}
		if 100*res.Telemetry.ComputedKeys > 105*base.Telemetry.ComputedKeys {
			t.Fatalf("GOMAXPROCS %d computed %d keys, 1 computed %d: more than 5 %% relearned", par, res.Telemetry.ComputedKeys, base.Telemetry.ComputedKeys)
		}
	}
}
