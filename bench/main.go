// Command bench is the repository's benchmark: six workloads, from a cold
// Session.Optimize call to requests routed over two replicas, each checked
// for correctness while it is timed. See README.md in this directory.
//
//	go run ./bench -workload cold_batch -seed 1 -seconds 15 -trace 0
//	go run ./bench -seed 1 -out bench/out/run.json     # all six
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloadDef is one benchmark workload: a name later issues cite, the one
// line on why it exists, and how to set it up.
type workloadDef struct {
	name, why string
	setup     func(name string, seed int64, traced bool, o *observer) (*instance, error)
}

var workloadDefs = []workloadDef{
	{"cold_batch", "fresh session per 64-query batch: oracle search and cache publish do the work, no cache helps (the paper's Fig. 4c/5c quantity, what cmd/mqo pays)",
		libWorkload{queries: 64, sharing: 0.25, pool: 32}.setup},
	{"warm_fit", "long-lived sessions cycling 4 batches each, working set inside the shared cost cache: DAG build dominates, search and publish are bypassed",
		libWorkload{queries: 32, sharing: 0.25, pool: 4, sessions: 8}.setup},
	{"warm_spill", "one long-lived session cycling 24 batches, four times its cost cache: every op misses, publishes and resets shards",
		libWorkload{queries: 32, sharing: 0.25, pool: 24, sessions: 1}.setup},
	{"serve_solo", "POST /v1/optimize to one warm server, batching off: per-request serving overhead is a visible share of a short request",
		serveWorkload{queries: 16, specs: 16}.setup},
	{"serve_batched", "same server with continuous batching, all clients sending the same body in step: batcher, shared run and attribution",
		serveWorkload{queries: 16, specs: 16, batched: true}.setup},
	{"serve_routed", "mqorouter handler in front of 2 replicas, 4 tenants: the router hop on top of serve_solo",
		serveWorkload{queries: 16, specs: 16, replicas: 2}.setup},
}

// result is one workload's outcome, as printed and as written to -out.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Noisy     bool              `json:"noisy"` // calibration spins before and after differ by > 10 %
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // the first few reasons
	Metrics   map[string]value  `json:"metrics"`
	Inputs    map[string]record `json:"inputs"`          // deterministic outcome per distinct input
	Distinct  int               `json:"distinct_inputs"` // how many the workload cycles through
}

// environment stamps an output file; -compare refuses to compare across
// different machines or seeds.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"serve_clients"`
}

type outputFile struct {
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

func stamp(seed int64, seconds float64) environment {
	env := environment{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown", Seed: seed, Seconds: seconds, Clients: serveClients(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only inside a work tree: the benchmark also runs from plain checkouts,
	// where git would go looking through the parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// setupRepeats is how many times an untraced run sets the workload up; the
// median is setup_s and the last instance is the one measured.
const setupRepeats = 3

// runWorkload measures one workload. An untraced run spends all of seconds
// on the end-to-end metrics; a traced run spends half on an untraced phase
// (the reference for overhead and stage cover) and half on the traced one.
func runWorkload(def workloadDef, seed int64, seconds float64, traced bool) (*result, error) {
	res := &result{Workload: def.name, Traced: traced, Metrics: map[string]value{}, Inputs: map[string]record{}}
	setupObs := newObserver()
	calibBefore := calibrate()

	repeats, phaseSeconds := setupRepeats, seconds
	if traced {
		repeats, phaseSeconds = 1, seconds/2
	}
	var setups []float64
	var inst *instance
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = def.setup(def.name, seed, false, setupObs); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.Distinct = inst.inputs
	untraced := runPhase(inst, phaseSeconds)
	inst.close()
	phases := []*phase{untraced}

	var values map[string]float64
	if !traced {
		values = untraced.endToEnd()
		values["setup_s"] = median(setups)
	} else {
		tinst, err := def.setup(def.name, seed, true, setupObs)
		if err != nil {
			return nil, fmt.Errorf("%s: traced set-up: %w", def.name, err)
		}
		tp := runPhase(tinst, phaseSeconds)
		tinst.close()
		phases = append(phases, tp)
		values = layerMetrics(untraced, tp, setupObs)
		if err := writeTrace(def.name, tp.obs.spans); err != nil {
			return nil, err
		}
	}
	calibAfter := calibrate()
	res.Noisy = math.Abs(calibAfter-calibBefore) > 0.10*math.Min(calibAfter, calibBefore)
	if traced {
		values["bench.calib_ms"] = (calibBefore + calibAfter) / 2
	}

	for _, p := range phases {
		res.Attempted += len(p.samples)
		for _, s := range p.samples {
			if s.fail != "" {
				res.Failed++
				if len(res.Failures) < 5 {
					res.Failures = append(res.Failures, s.fail)
				}
			} else if s.key != "" {
				if prev, ok := res.Inputs[s.key]; ok && !prev.same(s.rec) {
					res.Failed++
					res.Failures = append(res.Failures, fmt.Sprintf("input %s: %+v then %+v in one run", s.key, prev, s.rec))
				}
				res.Inputs[s.key] = s.rec
			}
		}
	}
	if traced {
		values["error_rate"] = ratio(float64(res.Failed), float64(res.Attempted))
	}
	declared := endToEnd
	if traced {
		declared = perLayer
	}
	for _, m := range declared {
		res.Metrics[m.Name] = value{Value: values[m.Name], Unit: m.Unit}
	}
	return res, nil
}

// outDir is where a traced run leaves its spans (the command runs from the
// repository root); the smoke test points it at a scratch directory.
var outDir = filepath.Join("bench", "out")

// writeTrace writes a traced phase's spans to <outDir>/trace-<workload>.json.
func writeTrace(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}

// print writes the workload's metrics by name with their units, then the
// one-line JSON result the benchmark driver reads.
func (r *result) print() error {
	noisy := ""
	if r.Noisy {
		noisy = ", noisy machine"
	}
	fmt.Printf("== %s (trace %v, %d ops, %d failed%s)\n", r.Workload, r.Traced, r.Attempted, r.Failed, noisy)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-30s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, f := range r.Failures {
		fmt.Println("failed op:", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func run() error {
	// The driver passes "--trace 0|1"; a Go bool flag wants "-trace=1".
	var args []string
	for _, a := range os.Args[1:] {
		if n := len(args); n > 0 && (args[n-1] == "-trace" || args[n-1] == "--trace") && (a == "0" || a == "1") {
			args[n-1] = "-trace=" + a
			continue
		}
		args = append(args, a)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run only this workload (default: all six)")
	seed := fs.Int64("seed", 1, "workload seed; inputs are a pure function of it")
	seconds := fs.Float64("seconds", 15, "measured time per workload")
	trace := fs.Bool("trace", false, "traced run: per-layer metrics and bench/out/trace-<workload>.json")
	out := fs.String("out", "", "also write the results to this JSON file")
	recordGolden := fs.Bool("record-golden", false, "rewrite bench/golden.json from this run (seed 1)")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *recordGolden {
		if *seed != goldenSeed || *workload != "" {
			return fmt.Errorf("-record-golden records all workloads at seed %d", goldenSeed)
		}
		recording = true
	}

	file := outputFile{Env: stamp(*seed, *seconds)}
	failed := false
	for _, def := range workloadDefs {
		if *workload != "" && def.name != *workload {
			continue
		}
		r, err := runWorkload(def, *seed, *seconds, *trace)
		if err != nil {
			return err
		}
		if err := r.print(); err != nil {
			return err
		}
		file.Workloads = append(file.Workloads, r)
		failed = failed || r.Failed > 0
	}
	if len(file.Workloads) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if *recordGolden {
		return writeGolden(file.Workloads)
	}
	if failed {
		return fmt.Errorf("some ops failed their checks")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
