package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/parser"
	"repro/internal/workload"
)

// maxBodyBytes bounds an optimize request body. Snapshots are far larger
// and have their own cap (snapshot.go).
const maxBodyBytes = 1 << 20

// Config parameterizes a Server. The zero value serves every tenant
// under TenantConfig's defaults with a 4-session pool.
type Config struct {
	// Tenants is the tenant table, keyed by tenant name. Its "*" entry
	// configures every tenant the table does not name; a table without
	// "*", even an empty one, rejects those tenants with 403; a nil table
	// admits every tenant under TenantConfig's defaults.
	Tenants map[string]TenantConfig
	// PoolSize bounds the session pool (default 4 catalogs).
	PoolSize int
	// MaxQueries bounds the batch size one request may carry, spec or SQL
	// (≤ 0 = the default 1024).
	MaxQueries int
	// DefaultSF is the catalog scale factor when a request names none
	// (default 1).
	DefaultSF float64
	// AllowedSFs lists the scale factors requests may name. The sf is a
	// session-pool key, so an open set would let one tenant flush every
	// pooled session (and its warm cost cache) just by cycling fresh
	// values. Default {1, 10, 100}; DefaultSF is always included.
	AllowedSFs []float64
	// Breaker parameterizes the per-catalog circuit breaker (degraded and
	// open serving after repeated faults).
	Breaker BreakerConfig
	// Batch parameterizes cross-request continuous batching; the zero
	// value disables it and every request is served as a lane of one.
	Batch BatchConfig
	// Sched parameterizes the scheduler policy layer over a shared
	// worker-slot pool: deficit-round-robin weighted-fair dispatch,
	// deadline-aware cut-ahead and preemption (see SchedConfig). The zero
	// value has no shared slots: only the per-tenant limits bind.
	Sched SchedConfig
	// Logger receives request-level diagnostics; nil discards them.
	Logger *log.Logger
}

func (c Config) normalize() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.MaxQueries <= 0 {
		c.MaxQueries = 1024
	}
	if c.DefaultSF <= 0 {
		c.DefaultSF = 1
	}
	if len(c.AllowedSFs) == 0 {
		c.AllowedSFs = []float64{1, 10, 100}
	}
	if !slices.Contains(c.AllowedSFs, c.DefaultSF) {
		c.AllowedSFs = append(c.AllowedSFs, c.DefaultSF)
	}
	c.Breaker = c.Breaker.normalize()
	if c.Batch.Enabled {
		c.Batch = c.Batch.normalize()
	}
	c.Sched = c.Sched.normalize()
	return c
}

// Server is the HTTP front end; construct with New, mount Handler.
type Server struct {
	cfg      Config
	adm      *Admission
	pool     *sessionPool
	breaker  *breaker
	batcher  *batcher // nil unless Config.Batch.Enabled
	started  time.Time
	draining atomic.Bool
	// panics counts panics recovered anywhere on the serving path
	// (optimizer workers surfacing as FaultError, and handler panics
	// caught by the recoverPanics middleware).
	panics atomic.Int64
	// incidents numbers recovered panics so a 500's incident id can be
	// correlated with the server log.
	incidents atomic.Int64

	// preOptimize, when non-nil, runs after admission and before the
	// optimizer is invoked. Tests use it to hold admitted requests at a
	// deterministic point (filling slots and queues) and to observe the
	// request context.
	preOptimize func(ctx context.Context, req *OptimizeRequest)
	// onLaneComplete, when non-nil, observes every successful lane run:
	// the run's total telemetry and the per-member shares it was split
	// into. The race-stress conservation audit hangs off it.
	onLaneComplete func(total core.Telemetry, shares []core.Telemetry)
	// onLaneFault mirrors onLaneComplete for faulted runs: the telemetry
	// the run burned before its panic and the conserving per-member shares
	// it was charged out as.
	onLaneFault func(total core.Telemetry, shares []core.Telemetry)
}

// New builds a Server over its config.
func New(cfg Config) *Server {
	cfg = cfg.normalize()
	s := &Server{
		cfg:     cfg,
		adm:     NewScheduler(cfg.Tenants, cfg.Sched),
		pool:    newSessionPool(cfg.PoolSize),
		breaker: newBreaker(cfg.Breaker),
		started: time.Now(),
	}
	if cfg.Batch.Enabled {
		s.batcher = newBatcher(s, cfg.Batch)
	}
	return s
}

// Admission exposes the admission controller (quota resets, stats).
func (s *Server) Admission() *Admission { return s.adm }

// PanicsRecovered reports how many panics the serving path has recovered
// since startup.
func (s *Server) PanicsRecovered() int64 { return s.panics.Load() }

// Drain flips the server into draining mode: /healthz turns 503 and new
// optimize requests are rejected with 503 + Retry-After, while already
// admitted requests run to completion. Callers then use
// http.Server.Shutdown to wait for the in-flight handlers.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the server's routing table, wrapped in the
// panic-isolation middleware: no request, however it fails, takes the
// process down.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/tenants/{tenant}/reset", s.handleTenantReset)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/cache/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("PUT /v1/cache/snapshot", s.handleSnapshotPut)
	return s.recoverPanics(mux)
}

// trackingWriter remembers whether the handler already wrote, so the
// panic middleware only writes its 500 on a still-virgin response.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// incident mints a log-correlatable id for one recovered panic.
func (s *Server) incident() string {
	return fmt.Sprintf("inc-%x-%d", s.started.UnixNano()&0xffffff, s.incidents.Add(1))
}

// recoverPanics is the last line of the panic-isolation contract: a panic
// escaping any handler is logged with an incident id and turned into a
// 500 (when nothing was written yet) instead of killing the connection's
// serving goroutine with a blank reply.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // deliberate connection abort
				panic(rec)
			}
			id := s.incident()
			s.panics.Add(1)
			s.logf("server: %s %s: panic recovered (incident %s): %v", r.Method, r.URL.Path, id, rec)
			if !tw.wrote {
				incidentOutcome("internal error", id, 0).write(tw)
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // the client may be gone; nothing to do about it
}

// writeError writes the error body, with a Retry-After header (whole
// seconds, rounded up, ≥ 1) when retryAfter > 0. code is the stable
// machine-readable reason clients dispatch on.
func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	body := errorBody{Error: msg, Code: code}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		body.RetryAfterMS = retryAfter.Milliseconds()
	}
	writeJSON(w, status, body)
}

// tenantOf resolves the request's tenant: X-Tenant header first, then the
// body field, then "default".
func tenantOf(r *http.Request, req *OptimizeRequest) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	if req.Tenant != "" {
		return req.Tenant
	}
	return "default"
}

// requestCost estimates a request's scheduling cost in query-count units
// before its batch is built: the spec's query count, or the number of
// non-blank ;-separated statements in the SQL payload (at least 1, so a
// terminating or repeated ";" charges nothing). The DRR deficit charge
// scales with it, so a 64-query bulk request draws 64× the deficit of a
// single-query one.
func requestCost(req *OptimizeRequest) int {
	if req.Spec != nil {
		return req.Spec.Queries
	}
	n := 0
	for stmt := range strings.SplitSeq(req.SQL, ";") {
		if strings.TrimSpace(stmt) != "" {
			n++
		}
	}
	return max(n, 1)
}

// maxTenantNameLen bounds tenant names: they become map keys, stats keys
// and log fields, so an attacker-sized header must not inflate them.
const maxTenantNameLen = 100

// validTenantName accepts short printable-ASCII names without spaces —
// safe as JSON keys, header echoes and log fields.
func validTenantName(s string) bool {
	if len(s) == 0 || len(s) > maxTenantNameLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] <= ' ' || s[i] >= 0x7f {
			return false
		}
	}
	return true
}

// buildBatch materializes the request's batch: the workload generator for
// spec payloads, the SQL parser for sql payloads.
func (s *Server) buildBatch(req *OptimizeRequest) (*logical.Batch, error) {
	if req.Spec != nil {
		return workload.Generate(*req.Spec)
	}
	batch, err := parser.ParseBatch(req.SQL)
	if err != nil {
		return nil, err
	}
	if len(batch.Queries) > s.cfg.MaxQueries {
		return nil, errors.New("sql batch exceeds the server's query cap")
	}
	return batch, nil
}

// runSpec is the fully resolved execution shape of one request after
// every clamp: strategy and budgets with the tenant's caps
// and (when degraded) the breaker's clamps already applied. It is
// comparable, so the batch scheduler keys lanes on it — requests coalesce
// only when the one shared run's options are exactly what each member
// would have run solo with.
type runSpec struct {
	strategy   core.Strategy
	timeMS     int64
	callBudget int // -1 = unbudgeted; 0 is meaningful (forbid all calls)
}

// effectiveSpec resolves a request against its tenant's caps and, when
// degraded, the breaker's clamps: the effective budget is the tightest of
// the request's ask, the tenant's cap and the degraded clamp, and
// degraded serving forces the cheap LazyGreedy fallback strategy.
func effectiveSpec(req *OptimizeRequest, cfg TenantConfig, degraded bool) runSpec {
	strat, _ := parseStrategy(req.Strategy) // validated at decode time
	rs := runSpec{strategy: strat, timeMS: req.TimeBudgetMS, callBudget: -1}
	if req.OracleCallBudget != nil {
		rs.callBudget = *req.OracleCallBudget
	}
	clamp := func(capMS int64, capCalls int) {
		if capMS > 0 && (rs.timeMS == 0 || rs.timeMS > capMS) {
			rs.timeMS = capMS
		}
		if capCalls > 0 && (rs.callBudget < 0 || rs.callBudget > capCalls) {
			rs.callBudget = capCalls
		}
	}
	clamp(cfg.TimeBudgetMS, cfg.CallBudget)
	if degraded {
		rs.strategy = core.LazyGreedyStrategy
		clamp(degradedTimeBudgetMS, degradedCallBudget)
	}
	return rs
}

// options maps the resolved spec onto Session options.
func (rs runSpec) options() []repro.Option {
	opts := []repro.Option{repro.WithStrategy(rs.strategy)}
	if rs.timeMS > 0 {
		opts = append(opts, repro.WithTimeBudget(time.Duration(rs.timeMS)*time.Millisecond))
	}
	if rs.callBudget >= 0 {
		opts = append(opts, repro.WithOracleCallBudget(rs.callBudget))
	}
	return opts
}

// decodeOptimize reads and validates one optimize request: everything
// that is a pure function of the body, the headers and the config is
// checked here, before admission, so a request that can only ever be a 4xx
// never occupies a scheduler slot, waits in a tenant queue or draws DRR
// deficit. ok=false means the error response has been written.
func (s *Server) decodeOptimize(w http.ResponseWriter, r *http.Request) (req *OptimizeRequest, tenant string, key poolKey, ok bool) {
	fail := func(status int, code, msg string) (*OptimizeRequest, string, poolKey, bool) {
		writeError(w, status, code, msg, 0)
		return nil, "", poolKey{}, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return fail(http.StatusRequestEntityTooLarge, codeBodyTooLarge, "request body too large")
	case err != nil:
		return fail(http.StatusBadRequest, codeBadRequest, "reading request body: "+err.Error())
	}
	req, err = decodeOptimizeRequest(body, s.cfg.MaxQueries)
	if err != nil {
		return fail(http.StatusBadRequest, codeBadRequest, err.Error())
	}
	tenant = tenantOf(r, req)
	if !validTenantName(tenant) {
		return fail(http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("tenant name must be 1..%d printable non-space ASCII characters", maxTenantNameLen))
	}
	sf := req.SF
	if sf == 0 {
		sf = s.cfg.DefaultSF
	}
	if !slices.Contains(s.cfg.AllowedSFs, sf) {
		return fail(http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("sf %v is not served; allowed scale factors: %v", sf, s.cfg.AllowedSFs))
	}
	return req, tenant, poolKey{sf: sf, extended: req.ExtendedOps}, true
}

// handleOptimize is the one request pipeline: decode → validate → admit →
// build → lane of ≥ 1 → one shared run → attribute → encode. With
// batching off, or for a request carrying a resume checkpoint (which
// binds to its own search space and so cannot share a run), the handler
// forms a lane of one and runs it here; otherwise the batcher decides who
// else is in the lane. Either way Server.runLane serves it.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server is draining", 5*time.Second)
		return
	}
	req, tenantName, key, ok := s.decodeOptimize(w, r)
	if !ok {
		return
	}
	ctx := r.Context()

	queuedAt := time.Now()
	g, err := s.adm.AcquireGrant(ctx, AdmitRequest{
		Tenant:   tenantName,
		Cost:     requestCost(req),
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
	})
	if err != nil {
		s.rejected(w, tenantName, err)
		return
	}
	queueWait := time.Since(queuedAt)
	// Charge the admission slot and the tenant quota exactly once, with
	// whatever the run actually spent.
	spent := 0
	defer func() { g.Release(spent) }()

	if s.preOptimize != nil {
		s.preOptimize(ctx, req)
	}

	batch, err := s.buildBatch(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error(), 0)
		return
	}
	degraded, retry, admitted := s.breaker.admit(key)
	if !admitted {
		writeError(w, http.StatusServiceUnavailable, codeBreakerOpen,
			"catalog "+key.String()+" is temporarily unavailable after repeated faults", retry)
		return
	}
	lk := laneKey{pool: key, spec: effectiveSpec(req, s.adm.Config(tenantName), degraded), degraded: degraded}
	m := &batchMember{
		ctx:       ctx,
		batch:     batch,
		tenant:    tenantName,
		planText:  req.PlanText,
		queueWait: queueWait,
		grant:     g,
		resume:    req.Resume,
		outcome:   make(chan batchOutcome, 1),
	}
	// The outcome always arrives — the batcher's run path is panic-isolated
	// and a panic in the handler's own lane unwinds to the middleware — and
	// carries the member's exact oracle-call share for the quota charge.
	var out batchOutcome
	if s.batcher != nil && req.Resume == nil {
		m.fp, _ = memo.BatchKey(batch) // only a shared lane coalesces
		out = s.batcher.submit(lk, m)
	} else {
		s.runLane(&lane{key: lk, members: []*batchMember{m}})
		out = <-m.outcome
	}
	spent = out.spent
	out.write(w)
}

// rejected maps an admission error onto its HTTP status.
func (s *Server) rejected(w http.ResponseWriter, tenant string, err error) {
	retry := s.adm.RetryAfter(tenant, err)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, codeQueueFull, err.Error(), retry)
	case errors.Is(err, ErrQuotaExhausted):
		writeError(w, http.StatusTooManyRequests, codeQuotaExhausted, err.Error(), retry)
	case errors.Is(err, ErrTenantOverflow):
		writeError(w, http.StatusTooManyRequests, codeTenantOverflow, err.Error(), retry)
	case errors.Is(err, ErrQueueTimeout):
		writeError(w, http.StatusServiceUnavailable, codeQueueTimeout, err.Error(), retry)
	case errors.Is(err, ErrUnknownTenant):
		writeError(w, http.StatusForbidden, codeUnknownTenant, err.Error(), 0)
	case errors.Is(err, ErrCancelled):
		// The client is gone; the status is never seen. 499 is the
		// conventional nginx code for this.
		w.WriteHeader(499)
	default:
		writeError(w, http.StatusInternalServerError, codeInternalError, err.Error(), 0)
	}
	s.logf("server: %s: rejected: %v", tenant, err)
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	UptimeNS int64                  `json:"uptime_ns"`
	Draining bool                   `json:"draining"`
	Tenants  map[string]TenantStats `json:"tenants"`
	Pool     []PoolEntryStats       `json:"pool"`
	// PanicsRecovered counts panics the serving path absorbed (optimizer
	// faults and handler panics) since startup.
	PanicsRecovered int64 `json:"panics_recovered"`
	// Retired aggregates the lifetime stats of sessions the pool dropped
	// (evicted or quarantined): Pool + Retired is the full serving
	// history, so telemetry conservation survives session churn.
	Retired      repro.SessionStats `json:"retired_sessions"`
	RetiredCount int                `json:"retired_session_count"`
	// Breakers reports catalogs with non-trivial breaker state.
	Breakers map[string]BreakerStats `json:"breakers,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	retired, retiredCount := s.pool.retiredStats()
	writeJSON(w, http.StatusOK, &StatsResponse{
		UptimeNS:        time.Since(s.started).Nanoseconds(),
		Draining:        s.draining.Load(),
		Tenants:         s.adm.Stats(),
		Pool:            s.pool.stats(),
		PanicsRecovered: s.panics.Load(),
		Retired:         retired,
		RetiredCount:    retiredCount,
		Breakers:        s.breaker.snapshot(),
	})
}

// TenantResetResponse is the body of POST /v1/tenants/{tenant}/reset.
type TenantResetResponse struct {
	Tenant string      `json:"tenant"`
	Stats  TenantStats `json:"stats"`
}

// handleTenantReset is the operator's quota reset: it refills the named
// tenant's token bucket to capacity and zeroes its recorded spend, then
// reports the tenant's post-reset counters.
func (s *Server) handleTenantReset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	if !validTenantName(name) {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("tenant name must be 1..%d printable non-space ASCII characters", maxTenantNameLen), 0)
		return
	}
	if !s.adm.ResetQuota(name) {
		writeError(w, http.StatusNotFound, codeTenantNotFound,
			"tenant "+name+" has no admission state to reset", 0)
		return
	}
	s.logf("server: %s: quota reset", name)
	writeJSON(w, http.StatusOK, &TenantResetResponse{Tenant: name, Stats: s.adm.Stats()[name]})
}

// healthzResponse is the body of GET /healthz.
type healthzResponse struct {
	Status   string                  `json:"status"`
	Breakers map[string]BreakerStats `json:"breakers,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	breakers := s.breaker.snapshot()
	for _, b := range breakers {
		if b.State != "closed" {
			state = "degraded"
		}
	}
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, healthzResponse{Status: state, Breakers: breakers})
}
