package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaHeader is the response header naming the replica that actually
// served a routed request — the observable the load generator's affinity
// accounting reads.
const ReplicaHeader = "X-MQO-Replica"

// Retryable rejection codes: a 503 carrying one of these states the
// request was rejected before any optimization work ran, so re-sending it
// to another replica cannot double-execute anything.
const (
	codeDraining     = "draining"
	codeBreakerOpen  = "breaker_open"
	codeQueueTimeout = "queue_timeout"
	codeNoReplicas   = "no_replicas"
	codeBadRequest   = "bad_request"
)

// The router's tuning (the ring's is vnodes): constants, see the package doc.
const (
	// loadFactor is the bounded-load factor c ≥ 1: a replica's in-flight
	// share may exceed the fair share load/n by at most ×c before keys
	// spill to the next ring position. Higher values favor affinity
	// (warmer caches), lower values favor even load.
	loadFactor = 1.25
	// maxRetries caps how many additional replicas one request may be
	// forwarded to after its first target fails retryably.
	maxRetries = 2
	// maxBodyBytes bounds a proxied request body: the router fronts
	// snapshot-sized payloads, not just optimize bodies.
	maxBodyBytes = 64 << 20
	// healthInterval is the /healthz poll period of Run's loop, and
	// healthTimeout bounds one probe or one stats fetch. A forwarded
	// request has no timeout of its own: optimizations can legitimately
	// run long, so it ends with its client's deadline.
	healthInterval = 2 * time.Second
	healthTimeout  = time.Second
)

// RouterConfig parameterizes a Router. Replicas is required.
type RouterConfig struct {
	// Replicas lists the replica base URLs ("http://host:port", no
	// trailing slash required — one is trimmed).
	Replicas []string
	// DefaultSF mirrors the replicas' default scale factor so an
	// sf-less request routes to the same catalog key the serving tier
	// will pool it under (default 1).
	DefaultSF float64
	// Transport overrides the forwarding round-tripper (tests inject
	// httptest clients); nil uses http.DefaultTransport.
	Transport http.RoundTripper
	// Logger receives routing diagnostics; nil discards them.
	Logger *log.Logger
}

// Router is the replicated serving tier's front end: it places each
// request on the consistent-hash ring by (tenant, catalog), forwards it
// to the key's first eligible replica, and retries provably-unexecuted
// failures on the key's fallback replicas. Construct with NewRouter,
// mount Handler, optionally Run the health poll loop.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	client *http.Client
	health *healthTracker

	mu       sync.Mutex
	inflight map[string]int
	total    int

	forwards atomic.Int64
	retries  atomic.Int64
	failures atomic.Int64
}

// NewRouter builds a router over its config. The replica set is fixed for
// the router's lifetime; membership change means building a new router
// (rings are pure functions of the member set, so a rebuilt router agrees
// with every other instance built from the same list).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.DefaultSF <= 0 {
		cfg.DefaultSF = 1
	}
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: router needs at least one replica")
	}
	reps := make([]string, len(cfg.Replicas))
	for i, r := range cfg.Replicas {
		for len(r) > 0 && r[len(r)-1] == '/' {
			r = r[:len(r)-1]
		}
		if r == "" {
			return nil, errors.New("cluster: empty replica URL")
		}
		reps[i] = r
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(reps),
		client:   &http.Client{Transport: cfg.Transport},
		inflight: make(map[string]int),
	}
	rt.health = newHealthTracker(rt.ring.Replicas())
	return rt, nil
}

// Ring exposes the router's ring (tests assert placement against it).
func (rt *Router) Ring() *Ring { return rt.ring }

// Run blocks polling replica health until ctx is cancelled. Callers that
// drive health themselves (tests) skip it and call CheckNow.
func (rt *Router) Run(ctx context.Context) {
	rt.CheckNow(ctx)
	rt.pollLoop(ctx)
}

// Handler returns the router's routing table.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/optimize", rt.handleOptimize)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// probeFields is the lenient body probe: the router reads only what
// placement needs — tenant and catalog key — and forwards the raw bytes
// untouched, so every other field (resume tokens included) reaches the
// replica exactly as the client sent it. Unknown fields and malformed
// bodies are NOT rejected here; the serving tier owns strict validation
// and its 400 must come from the replica that would have served the
// request.
type probeFields struct {
	Tenant      string  `json:"tenant"`
	SF          float64 `json:"sf"`
	ExtendedOps bool    `json:"extended_ops"`
}

// routingKey derives the placement key: tenant plus the catalog pool key
// in the serving tier's own spelling ("sf=1", "sf=10+hash"), so one
// tenant's traffic for one catalog always lands on one replica (until
// health or load says otherwise) and warms exactly one session.
func (rt *Router) routingKey(r *http.Request, body []byte) (key, catalog string) {
	var p probeFields
	_ = json.Unmarshal(body, &p) // lenient: zero values route like defaults
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = p.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	sf := p.SF
	if sf <= 0 || math.IsNaN(sf) || math.IsInf(sf, 0) {
		sf = rt.cfg.DefaultSF
	}
	catalog = fmt.Sprintf("sf=%g", sf)
	if p.ExtendedOps {
		catalog += "+hash"
	}
	return tenant + "|" + catalog, catalog
}

// acquireSlot accounts one in-flight forward against the bounded-load
// capacity; the returned release must be called when the forward ends.
func (rt *Router) acquireSlot(replica string) func() {
	rt.mu.Lock()
	rt.inflight[replica]++
	rt.total++
	rt.mu.Unlock()
	return func() {
		rt.mu.Lock()
		rt.inflight[replica]--
		rt.total--
		rt.mu.Unlock()
	}
}

// underCapacity implements the bounded-load rule: with n eligible
// replicas and L requests in flight, a replica may hold at most
// ceil(c·(L+1)/n) of them. The +1 counts the request being placed.
func (rt *Router) underCapacity(replica string, eligible int) bool {
	if eligible <= 1 {
		return true
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	capacity := int(math.Ceil(loadFactor * float64(rt.total+1) / float64(eligible)))
	return rt.inflight[replica] < capacity
}

// errorBody mirrors the serving tier's error envelope (the subset the
// router reads and writes).
type errorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Logger != nil {
		rt.cfg.Logger.Printf(format, args...)
	}
}

// retryableReject classifies a replica response: true only for 503s whose
// code proves the request was rejected before any work ran (draining,
// open breaker, queue timeout) — or that carry Retry-After with an
// unknown code, which the serving tier only does on pre-execution
// rejections. 4xx are never retryable: a quota or tenancy rejection on
// one replica must surface to the client, not shop for a laxer replica.
func retryableReject(status int, body []byte) (string, bool) {
	if status != http.StatusServiceUnavailable {
		return "", false
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		return "", false
	}
	switch eb.Code {
	case codeDraining, codeBreakerOpen, codeQueueTimeout:
		return eb.Code, true
	}
	return eb.Code, eb.RetryAfterMS > 0
}

func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "request body too large", Code: "body_too_large"})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "reading request body: " + err.Error(), Code: codeBadRequest})
		return
	}
	key, catalog := rt.routingKey(r, body)
	prefs := rt.ring.Order(key)

	// Candidate order: the key's ring preference order, eligible replicas
	// first (healthy, not draining, breaker closed for this catalog, under
	// the bounded-load capacity), then eligible-but-saturated ones, then —
	// only if nothing was eligible — the rest, optimistically, because the
	// health view may be stale and a failed forward re-probes reality.
	eligible := make([]string, 0, len(prefs))
	saturated := make([]string, 0, len(prefs))
	rest := make([]string, 0, len(prefs))
	for _, rep := range prefs {
		switch {
		case !rt.health.eligible(rep, catalog):
			rest = append(rest, rep)
		case rt.underCapacity(rep, len(prefs)):
			eligible = append(eligible, rep)
		default:
			saturated = append(saturated, rep)
		}
	}
	candidates := append(append(eligible, saturated...), rest...)

	budget := maxRetries + 1 // first attempt + retries
	var lastErr string
	for i, rep := range candidates {
		if i >= budget {
			break
		}
		if i > 0 {
			rt.retries.Add(1)
		}
		status, hdr, respBody, err := rt.forward(r.Context(), rep, r, body)
		if err != nil {
			if r.Context().Err() != nil {
				// The client left mid-forward and took the attempt with
				// it: that says nothing about the replica, so its health
				// stays as it was and nobody is left to shop for.
				return
			}
			// The connection never yielded a response: for dial-class
			// errors the request provably never executed, so the next
			// replica may take it. Mark the replica down either way.
			rt.health.markDown(rep, err)
			lastErr = err.Error()
			rt.logf("cluster: %s: forward to %s failed: %v", key, rep, err)
			continue
		}
		if code, retryable := retryableReject(status, respBody); retryable {
			if code == codeDraining {
				rt.health.markDraining(rep)
			}
			lastErr = string(respBody)
			rt.logf("cluster: %s: %s rejected with %s, trying next replica", key, rep, code)
			continue
		}
		rt.forwards.Add(1)
		rt.health.markUp(rep)
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set(ReplicaHeader, rep)
		w.WriteHeader(status)
		_, _ = w.Write(respBody)
		return
	}
	rt.failures.Add(1)
	msg := "no replica could serve the request"
	if lastErr != "" {
		msg += "; last failure: " + lastErr
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: msg, Code: codeNoReplicas, RetryAfterMS: 1000})
}

// forward sends one attempt to one replica, returning the response
// verbatim (status, headers, body) or a transport error.
func (rt *Router) forward(ctx context.Context, replica string, orig *http.Request, body []byte) (int, http.Header, []byte, error) {
	release := rt.acquireSlot(replica)
	defer release()
	req, err := http.NewRequestWithContext(ctx, orig.Method, replica+orig.URL.Path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	for k, vs := range orig.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set("Content-Length", strconv.Itoa(len(body)))
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	hdr := resp.Header.Clone()
	hdr.Del("Content-Length") // the writer recomputes it
	return resp.StatusCode, hdr, respBody, nil
}

// RouterStats is the body of the router's GET /v1/stats: cluster-wide
// counters plus each replica's own stats document, verbatim.
type RouterStats struct {
	Replicas int `json:"replicas"`
	Healthy  int `json:"healthy"`
	// Forwarded counts requests served through the router; Retried counts
	// extra replica attempts; Failed counts requests no replica served.
	Forwarded int64 `json:"forwarded"`
	Retried   int64 `json:"retried"`
	Failed    int64 `json:"failed"`
	// PerReplica maps replica URL to its live /v1/stats body (or an
	// error envelope when unreachable).
	PerReplica map[string]json.RawMessage `json:"per_replica"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	reps := rt.ring.Replicas()
	out := RouterStats{
		Replicas:   len(reps),
		Forwarded:  rt.forwards.Load(),
		Retried:    rt.retries.Load(),
		Failed:     rt.failures.Load(),
		PerReplica: make(map[string]json.RawMessage, len(reps)),
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			raw := rt.fetchJSON(r.Context(), rep+"/v1/stats")
			mu.Lock()
			out.PerReplica[rep] = raw
			mu.Unlock()
		}(rep)
	}
	wg.Wait()
	for _, rep := range reps {
		if rt.health.snapshot(rep).up {
			out.Healthy++
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// fetchJSON GETs a replica endpoint and returns its body as raw JSON, or
// an error envelope.
func (rt *Router) fetchJSON(ctx context.Context, url string) json.RawMessage {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err == nil {
		var resp *http.Response
		if resp, err = rt.client.Do(req); err == nil {
			defer resp.Body.Close()
			var data []byte
			if data, err = io.ReadAll(io.LimitReader(resp.Body, 8<<20)); err == nil && json.Valid(data) {
				return data
			}
			if err == nil {
				err = errors.New("invalid JSON from replica")
			}
		}
	}
	msg, _ := json.Marshal(errorBody{Error: err.Error(), Code: "unreachable"})
	return msg
}

// routerHealthz is the body of the router's GET /healthz.
type routerHealthz struct {
	// Status is "ok" when every replica is serving, "degraded" when at
	// least one is not, "down" when none are.
	Status   string                  `json:"status"`
	Replicas map[string]replicaState `json:"replicas"`
}

type replicaState struct {
	Up       bool   `json:"up"`
	Draining bool   `json:"draining,omitempty"`
	Error    string `json:"error,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.CheckNow(r.Context())
	reps := rt.ring.Replicas()
	out := routerHealthz{Replicas: make(map[string]replicaState, len(reps))}
	serving := 0
	for _, rep := range reps {
		h := rt.health.snapshot(rep)
		out.Replicas[rep] = replicaState{Up: h.up, Draining: h.draining, Error: h.lastErr}
		if h.up && !h.draining {
			serving++
		}
	}
	status := http.StatusOK
	switch {
	case serving == len(reps):
		out.Status = "ok"
	case serving > 0:
		out.Status = "degraded"
	default:
		out.Status = "down"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}
