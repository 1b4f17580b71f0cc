package loadsim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Hook runs Fn when the replay's virtual clock passes At — the mechanism
// chaos tests use to kill or drain a replica mid-trace at a reproducible
// point.
type Hook struct {
	At time.Duration
	Fn func()
}

// RunConfig parameterizes a replay.
type RunConfig struct {
	// BaseURL is the target — a router or a single server; the simulator
	// speaks only the public HTTP API, so it cannot tell which.
	BaseURL string
	// Client overrides the HTTP client (nil: a dedicated default client).
	Client *http.Client
	// TimeScale compresses virtual time: 2 plays a trace twice as fast
	// as real time, 0 plays it as fast as the in-flight cap allows
	// (arrival *order* is still the trace's, so replays stay comparable).
	TimeScale float64
	// MaxInFlight caps concurrent requests (default 16).
	MaxInFlight int
	// ScrapeStats fetches BaseURL/v1/stats after the replay into
	// Report.StatsBody, capturing per-replica warmth (cache entries, hit
	// rates) next to the load-side numbers.
	ScrapeStats bool
	// Observer, when non-nil, receives every response as it is folded into
	// the report: the tenant, the HTTP status (0 for a transport error) and
	// the raw body (nil on transport errors). It runs under the report
	// lock, so implementations must not call back into the runner. The
	// fairness harness uses it to capture bodies for bit-identity audits.
	Observer func(tenant string, status int, body []byte)
	Hooks    []Hook
}

// TenantReport is one tenant's slice of a replay measurement.
type TenantReport struct {
	Requests int
	Goodput  int
	Rejected int
	Failed   int
	// Latency percentiles over this tenant's requests, milliseconds.
	P50MS, P99MS float64
	// OracleCalls and Preemptions sum over this tenant's 200 responses.
	OracleCalls int
	Preemptions int

	latencies []float64
}

// Report is what a replay measured.
type Report struct {
	// Requests counts everything sent; Goodput the 200s; Rejected the
	// 4xx (admission doing its job); Failed the 5xx and transport errors.
	Requests int
	Goodput  int
	Rejected int
	Failed   int
	// StatusCounts maps HTTP status (0 = transport error) to count.
	StatusCounts map[int]int
	// Latency percentiles over all requests, milliseconds.
	P50MS, P99MS, P999MS float64
	// ElapsedMS is the replay wall clock; GoodputRPS = Goodput/elapsed.
	ElapsedMS  float64
	GoodputRPS float64
	// OracleCalls sums the oracle calls of every 200 response.
	OracleCalls int
	// Preemptions sums the preemption counts of every 200 response: how
	// often the server paused runs to serve nearer-deadline
	// work during the replay.
	Preemptions int
	// ByTenant breaks the measurement down per X-Tenant attribution.
	ByTenant map[string]*TenantReport
	// ByKeyReplica counts, per tenant-catalog key, which replica served
	// each request (from X-MQO-Replica; "direct" when absent — a bare
	// server, no router).
	ByKeyReplica map[string]map[string]int
	// StatsBody is the target's /v1/stats document, when scraped.
	StatsBody json.RawMessage `json:"-"`
}

// Affinity returns the largest single-replica share of a key's requests
// (1 = perfect affinity), and the replica holding it.
func (r *Report) Affinity(key string) (float64, string) {
	reps := r.ByKeyReplica[key]
	total, best, bestRep := 0, 0, ""
	for rep, n := range reps {
		total += n
		if n > best {
			best, bestRep = n, rep
		}
	}
	if total == 0 {
		return 0, ""
	}
	return float64(best) / float64(total), bestRep
}

// String renders the report for the experiments command.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests=%d goodput=%d rejected=%d failed=%d\n", r.Requests, r.Goodput, r.Rejected, r.Failed)
	fmt.Fprintf(&b, "latency p50=%.2fms p99=%.2fms p999=%.2fms  goodput=%.1f req/s  oracle_calls=%d\n",
		r.P50MS, r.P99MS, r.P999MS, r.GoodputRPS, r.OracleCalls)
	keys := make([]string, 0, len(r.ByKeyReplica))
	for k := range r.ByKeyReplica {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		aff, rep := r.Affinity(k)
		fmt.Fprintf(&b, "  %-24s affinity=%.0f%% home=%s\n", k, 100*aff, rep)
	}
	return b.String()
}

// outcome is one request's result, folded into the report under a lock.
type outcome struct {
	key         string
	tenant      string
	status      int
	replica     string
	latencyMS   float64
	calls       int
	preemptions int
	body        []byte
}

// runner carries the shared replay state.
type runner struct {
	cfg    RunConfig
	client *http.Client
	sem    chan struct{}

	mu        sync.Mutex
	latencies []float64
	report    *Report
}

// Run replays a trace against cfg.BaseURL: open-loop events at their
// (time-scaled) arrival times, closed-loop workers for the trace's
// virtual duration. Cancelling ctx stops the replay early; what was
// measured so far is still reported.
func Run(ctx context.Context, tr *Trace, cfg RunConfig) (*Report, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 16
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	r := &runner{
		cfg:    cfg,
		client: client,
		sem:    make(chan struct{}, cfg.MaxInFlight),
		report: &Report{
			StatusCounts: make(map[int]int),
			ByKeyReplica: make(map[string]map[string]int),
			ByTenant:     make(map[string]*TenantReport),
		},
	}
	hooks := append([]Hook(nil), cfg.Hooks...)
	sort.SliceStable(hooks, func(a, b int) bool { return hooks[a].At < hooks[b].At })

	start := time.Now()
	virtual := func() time.Duration {
		if cfg.TimeScale <= 0 {
			return tr.Cfg.Duration // no pacing: hooks fire by event order
		}
		return time.Duration(float64(time.Since(start)) * cfg.TimeScale)
	}
	var wg sync.WaitGroup

	// Closed-loop workers run for the whole virtual duration.
	loopCtx, stopLoops := context.WithCancel(ctx)
	defer stopLoops()
	for li, cl := range tr.Closed {
		for w := 0; w < cl.Load.Concurrency; w++ {
			wg.Add(1)
			go func(li, w int, cl ClosedLoop) {
				defer wg.Done()
				seq := int64(0)
				for loopCtx.Err() == nil && virtual() < tr.Cfg.Duration {
					seed := cl.Load.Spec.Seed
					if cl.Load.VarySeeds {
						seed = tr.Cfg.Seed + int64(li)*1_000_003 + int64(w)*7919 + seq
					}
					body, err := buildBody(cl.Load, seed)
					if err != nil {
						return
					}
					r.send(loopCtx, cl.Load.Tenant, cl.Key, body)
					seq++
					if cl.Load.ThinkMS > 0 && cfg.TimeScale > 0 {
						think := time.Duration(float64(cl.Load.ThinkMS)*float64(time.Millisecond)) / time.Duration(cfg.TimeScale)
						select {
						case <-loopCtx.Done():
						case <-time.After(think):
						}
					}
				}
			}(li, w, cl)
		}
	}

	// Open-loop events fire at their scaled arrival times; hooks fire as
	// the virtual clock passes them (with TimeScale 0, before the first
	// event at or after their timestamp — order is preserved, pacing not).
	nextHook := 0
	for _, ev := range tr.Events {
		if ctx.Err() != nil {
			break
		}
		for nextHook < len(hooks) && hooks[nextHook].At <= ev.At {
			if cfg.TimeScale > 0 {
				r.sleepUntil(ctx, start, hooks[nextHook].At, cfg.TimeScale)
			}
			hooks[nextHook].Fn()
			nextHook++
		}
		if cfg.TimeScale > 0 {
			r.sleepUntil(ctx, start, ev.At, cfg.TimeScale)
		}
		wg.Add(1)
		go func(ev Event) {
			defer wg.Done()
			r.send(ctx, ev.Tenant, ev.Key, ev.Body)
		}(ev)
	}
	// Let in-flight work and closed loops finish, then any trailing
	// hooks. Closed-loop workers stop on their own once the virtual clock
	// passes the duration — cancelling them here would abort their last
	// in-flight request and miscount it as a transport failure.
	if cfg.TimeScale > 0 {
		r.sleepUntil(ctx, start, tr.Cfg.Duration, cfg.TimeScale)
	}
	wg.Wait()
	for ; nextHook < len(hooks); nextHook++ {
		hooks[nextHook].Fn()
	}

	rep := r.report
	rep.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	if rep.ElapsedMS > 0 {
		rep.GoodputRPS = float64(rep.Goodput) / (rep.ElapsedMS / 1000)
	}
	sort.Float64s(r.latencies)
	rep.P50MS = percentile(r.latencies, 0.50)
	rep.P99MS = percentile(r.latencies, 0.99)
	rep.P999MS = percentile(r.latencies, 0.999)
	for _, tr := range rep.ByTenant {
		sort.Float64s(tr.latencies)
		tr.P50MS = percentile(tr.latencies, 0.50)
		tr.P99MS = percentile(tr.latencies, 0.99)
	}
	if cfg.ScrapeStats {
		if resp, err := client.Get(cfg.BaseURL + "/v1/stats"); err == nil {
			data, rerr := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
			resp.Body.Close()
			if rerr == nil && json.Valid(data) {
				rep.StatsBody = data
			}
		}
	}
	return rep, ctx.Err()
}

// sleepUntil waits until virtual time at (scaled) has passed.
func (r *runner) sleepUntil(ctx context.Context, start time.Time, at time.Duration, scale float64) {
	real := start.Add(time.Duration(float64(at) / scale))
	if d := time.Until(real); d > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
}

// send issues one request and folds its outcome into the report.
func (r *runner) send(ctx context.Context, tenant, key string, body []byte) {
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
	case <-ctx.Done():
		return
	}
	t0 := time.Now()
	o := outcome{key: key, tenant: tenant, latencyMS: 0}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.BaseURL+"/v1/optimize", bytes.NewReader(body))
	if err == nil {
		req.Header.Set("X-Tenant", tenant)
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = r.client.Do(req); err == nil {
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			o.status = resp.StatusCode
			o.replica = resp.Header.Get("X-MQO-Replica")
			o.body = data
			if o.status == http.StatusOK {
				var tele struct {
					Telemetry struct {
						OracleCalls int `json:"oracle_calls"`
					} `json:"telemetry"`
					Preemptions int `json:"preemptions"`
				}
				if json.Unmarshal(data, &tele) == nil {
					o.calls = tele.Telemetry.OracleCalls
					o.preemptions = tele.Preemptions
				}
			}
		}
	}
	if o.replica == "" {
		o.replica = "direct"
	}
	o.latencyMS = float64(time.Since(t0)) / float64(time.Millisecond)

	r.mu.Lock()
	defer r.mu.Unlock()
	rep := r.report
	tr := rep.ByTenant[o.tenant]
	if tr == nil {
		tr = &TenantReport{}
		rep.ByTenant[o.tenant] = tr
	}
	rep.Requests++
	tr.Requests++
	rep.StatusCounts[o.status]++
	switch {
	case o.status == http.StatusOK:
		rep.Goodput++
		rep.OracleCalls += o.calls
		rep.Preemptions += o.preemptions
		tr.Goodput++
		tr.OracleCalls += o.calls
		tr.Preemptions += o.preemptions
	case o.status >= 400 && o.status < 500:
		rep.Rejected++
		tr.Rejected++
	default:
		rep.Failed++
		tr.Failed++
	}
	if rep.ByKeyReplica[o.key] == nil {
		rep.ByKeyReplica[o.key] = make(map[string]int)
	}
	rep.ByKeyReplica[o.key][o.replica]++
	r.latencies = append(r.latencies, o.latencyMS)
	tr.latencies = append(tr.latencies, o.latencyMS)
	if r.cfg.Observer != nil {
		r.cfg.Observer(o.tenant, o.status, o.body)
	}
}

// percentile reads the q-quantile from sorted values (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
