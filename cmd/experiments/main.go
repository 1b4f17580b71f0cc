// Command experiments regenerates the paper's evaluation tables: Example 1
// (Figure 1), the batched TPCD workloads (Figures 4a–4c), the stand-alone
// TPCD queries (Figures 5a–5c), the Theorem 1 approximation-bound
// validation, and the Section 5 ablations. It also drives the synthetic
// workload generator (internal/workload) for stress runs beyond BQ6.
//
// Usage:
//
//	experiments [-run all|example1|exp1|exp2|bound|ablation|memory|operators|baselines|cardinality|workload|workload-sweep|loadsim]
//
// The workload modes compare MQO strategies on generated batches; their
// shape is controlled by the -wl-* flags, and the session-style budgets by
// -wl-time-budget / -wl-call-budget (a budgeted run degrades to its
// best-so-far materialization set and reports why it stopped):
//
//	experiments -run workload -wl-queries 64 -wl-sharing 0.75 -wl-shape star
//	experiments -run workload -wl-queries 256 -wl-time-budget 2s
//	experiments -run workload-sweep -wl-call-budget 2000
//
// -run loadsim replays a seeded multi-tenant trace (internal/loadsim)
// against a live router or server named by -ls-url — or against a
// throwaway in-process server when the flag is empty — and reports
// latency percentiles, goodput and per-replica affinity:
//
//	experiments -run loadsim -ls-url http://router:8070 -ls-rate 20 -ls-duration 30s
//	experiments -run loadsim -ls-tenants 4 -ls-seed 11 -ls-timescale 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loadsim"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	run := flag.String("run", "all", "which experiment to run: all, example1, exp1, exp2, bound, ablation, memory, operators, baselines, cardinality, workload, workload-sweep")
	wlQueries := flag.Int("wl-queries", 32, "workload: number of generated queries per batch")
	wlSharing := flag.Float64("wl-sharing", 0.75, "workload: sharing coefficient in [0,1]")
	wlShape := flag.String("wl-shape", "mixed", "workload: join shape (star, chain, snowflake, mixed)")
	wlFanOut := flag.Int("wl-fanout", 4, "workload: relations joined per query")
	wlSeed := flag.Int64("wl-seed", 1, "workload: generator seed")
	wlSelect := flag.Float64("wl-select", 0.8, "workload: fraction of scans with a selection predicate")
	wlAgg := flag.Float64("wl-agg", 0.5, "workload: fraction of queries with an aggregation")
	wlSF := flag.Float64("wl-sf", 1, "workload: TPCD scale factor")
	wlTimeBudget := flag.Duration("wl-time-budget", 0, "workload: wall-clock budget per optimization run (0 = none)")
	wlCallBudget := flag.Int("wl-call-budget", -1, "workload: oracle-call budget per optimization run (-1 = none)")
	lsURL := flag.String("ls-url", "", "loadsim: router or server base URL (empty = throwaway in-process server)")
	lsSeed := flag.Int64("ls-seed", 1, "loadsim: trace seed (same seed, byte-identical trace)")
	lsDuration := flag.Duration("ls-duration", 10*time.Second, "loadsim: virtual trace length")
	lsTenants := flag.Int("ls-tenants", 3, "loadsim: open-loop tenant count")
	lsRate := flag.Float64("ls-rate", 5, "loadsim: per-tenant mean arrival rate (requests/s)")
	lsDiurnal := flag.Float64("ls-diurnal", 0.5, "loadsim: diurnal rate-modulation amplitude in [0,1)")
	lsTimeScale := flag.Float64("ls-timescale", 0, "loadsim: virtual-to-real speedup (0 = replay flat out)")
	lsInFlight := flag.Int("ls-inflight", 8, "loadsim: max concurrent in-flight requests")
	flag.Parse()

	ctx := context.Background()
	wlConfig := func() core.Config {
		cfg := core.Config{TimeBudget: *wlTimeBudget}
		if *wlCallBudget >= 0 {
			cfg = cfg.LimitOracleCalls(*wlCallBudget)
		}
		return cfg
	}

	want := func(name string) bool { return *run == "all" || *run == name }
	emit := func(t *experiments.Table, err error) {
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		fmt.Println(t.String())
	}
	wlSpec := func() workload.Spec {
		shape, err := workload.ParseShape(*wlShape)
		if err != nil {
			log.Fatalf("experiments: %v", err)
		}
		return workload.Spec{
			Seed:       *wlSeed,
			Queries:    *wlQueries,
			Shape:      shape,
			FanOut:     *wlFanOut,
			Sharing:    *wlSharing,
			SelectFrac: *wlSelect,
			AggFrac:    *wlAgg,
		}
	}

	if want("example1") {
		emit(experiments.Example1())
	}
	if want("exp1") {
		for _, sf := range []float64{1, 100} {
			emit(experiments.Experiment1(sf))
		}
		emit(experiments.Experiment1Times(1))
	}
	if want("exp2") {
		for _, sf := range []float64{1, 100} {
			emit(experiments.Experiment2(sf))
		}
		emit(experiments.Experiment2Times(1))
	}
	if want("bound") {
		fmt.Println(experiments.BoundValidation().String())
	}
	if want("ablation") {
		emit(experiments.Ablation())
		emit(experiments.RuleAblation())
	}
	if want("memory") {
		emit(experiments.MemorySweep())
	}
	if want("operators") {
		emit(experiments.ExtendedOperators())
	}
	if want("baselines") {
		emit(experiments.Baselines())
	}
	if want("cardinality") {
		emit(experiments.CardinalityConstraint())
	}
	if want("workload") {
		emit(experiments.Workload(ctx, wlSpec(), *wlSF, wlConfig()))
	}
	// The sweep is not part of -run all: it optimizes a grid of batches and
	// takes minutes at the larger sizes (unless bounded by -wl-time-budget).
	if *run == "workload-sweep" {
		emit(experiments.WorkloadSweep(ctx, wlSpec(), *wlSF, []int{16, 32, 64}, []float64{0.25, 0.75}, wlConfig()))
	}
	// The load simulation is not part of -run all: it needs a serving
	// target (or stands one up) and measures wall-clock behavior, not
	// paper tables.
	if *run == "loadsim" {
		base := *lsURL
		if base == "" {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				log.Fatalf("experiments: loadsim: %v", err)
			}
			go func() { _ = http.Serve(ln, server.New(server.Config{}).Handler()) }()
			defer ln.Close()
			base = "http://" + ln.Addr().String()
			fmt.Printf("loadsim: no -ls-url, serving in-process at %s\n", base)
		}
		tenants := make([]loadsim.TenantLoad, *lsTenants)
		for i := range tenants {
			tenants[i] = loadsim.TenantLoad{
				Tenant:     fmt.Sprintf("tenant-%d", i),
				RatePerSec: *lsRate,
				DiurnalAmp: *lsDiurnal,
				Spec:       wlSpec(),
				SF:         *wlSF,
				VarySeeds:  true,
			}
		}
		tr, err := loadsim.GenTrace(loadsim.TraceConfig{
			Seed: *lsSeed, Duration: *lsDuration, Tenants: tenants,
		})
		if err != nil {
			log.Fatalf("experiments: loadsim: %v", err)
		}
		fmt.Print(tr.Summary())
		rep, err := loadsim.Run(ctx, tr, loadsim.RunConfig{
			BaseURL: base, TimeScale: *lsTimeScale, MaxInFlight: *lsInFlight, ScrapeStats: true,
		})
		if err != nil {
			log.Fatalf("experiments: loadsim: %v", err)
		}
		fmt.Print(rep.String())
	}
	if *run != "all" {
		switch *run {
		case "example1", "exp1", "exp2", "bound", "ablation", "memory", "operators", "baselines", "cardinality", "workload", "workload-sweep", "loadsim":
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
			os.Exit(2)
		}
	}
}
