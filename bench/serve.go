package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/tpcd"
)

const (
	serveSharing = 0.5
	sqlEvery     = 8 // every eighth request is the SQL batch below
	spanHeader   = "X-Bench-Span"
)

//go:embed batch.sql
var sqlBatch string

// serveTenants are the routed workload's tenants. Under the fixed replica
// names below the ring gives two to each of two replicas, in an order that
// has every client alternate between them.
var serveTenants = []string{"acme", "globex", "wonka", "initech"}

// serveWorkload is a workload that posts to /v1/optimize over loopback HTTP.
type serveWorkload struct {
	// specs distinct generated batches of queries queries each make the
	// request mix. The committed 16 × 16 are about 250 k cost-cache
	// entries, half of one pooled session's cache: the optimizer stays warm.
	queries, specs int
	batched        bool // continuous batching on, all clients send the same body in step
	replicas       int  // > 0: that many servers behind an mqorouter handler
}

// serveClients is the closed loop's width: one caller per core, at most 4.
func serveClients() int { return min(runtime.NumCPU(), 4) }

// body is one distinct request body and what a fresh library session makes
// of the same batch.
type body struct {
	key  string
	json []byte
	ref  record
}

// spanLog is where the handler-side middleware leaves the interval it
// measured, keyed by layer and the op id the client sent.
type spanLog struct{ m sync.Map }

type interval struct{ start, end time.Time }

// wrap times next for requests that carry an op id. The harness owns this
// middleware; the handlers it wraps are the program's, unchanged.
func (l *spanLog) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if id := r.Header.Get(spanHeader); id != "" {
			l.m.Store(layer+id, interval{start, time.Now()})
		}
	})
}

func (l *spanLog) take(layer, id string) (interval, bool) {
	v, ok := l.m.LoadAndDelete(layer + id)
	if !ok {
		return interval{}, false
	}
	return v.(interval), true
}

// serving is one set-up serving workload: the request mix, the servers and
// the clients' connections.
type serving struct {
	traced, batched bool
	gold            golden
	bodies          []body // the specs, then the SQL batch
	warmOracle      *replayed

	listeners []*httptest.Server // everything to close
	replicas  []*httptest.Server // the servers proper (not the router)
	target    string             // where clients post: the server, or the router
	tenants   []string           // X-Tenant values cycled through ("" = none)
	owner     map[string]string  // tenant → the replica its key hashes to
	log       spanLog
	clients   []*http.Client

	// Client 0's view of the replicas' cost caches, for counting resets.
	lastEntries, resets int
}

// buildBodies makes the request mix and runs each batch once on fresh
// session state, as a library caller would: the outcome every server
// response for that batch must reproduce.
func (sv *serving) buildBodies(w serveWorkload, seed int64, o *observer) error {
	cat, model := tpcd.Catalog(1), cost.Default()
	add := func(key string, payload any, b *logical.Batch) error {
		js, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		r, err := newStages(cat, model).replay(b, time.Now(), newObserver())
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", key, err)
		}
		if sv.warmOracle == nil {
			sv.warmOracle = r
		}
		sv.bodies = append(sv.bodies, body{key: key, json: js, ref: recordOf(r.res)})
		return nil
	}
	for k := 0; k < w.specs; k++ {
		spec, b, err := generate(seed, k, w.queries, serveSharing, o)
		if err != nil {
			return err
		}
		if err := add(strconv.Itoa(k), map[string]any{"spec": spec}, b); err != nil {
			return err
		}
	}
	t0 := time.Now()
	b, err := parser.ParseBatch(sqlBatch)
	if err != nil {
		return fmt.Errorf("bench/batch.sql: %w", err)
	}
	o.observe("parser.parse_ms", ms(float64(time.Since(t0))))
	return add("sql", map[string]any{"sql": sqlBatch}, b)
}

// start puts the servers (and the router) on loopback listeners, wrapped in
// the span middleware when traced. The router reaches the replicas under
// fixed names, so ring placement does not depend on the ports they got.
func (sv *serving) start(w serveWorkload) error {
	handler := func(layer string, h http.Handler) http.Handler {
		if sv.traced {
			return sv.log.wrap(layer, h)
		}
		return h
	}
	cfg := server.Config{}
	if w.batched {
		cfg.Batch = server.BatchConfig{Enabled: true, MaxRequests: len(sv.clients), MaxDelayMS: 5}
	}
	for i := 0; i < max(w.replicas, 1); i++ {
		sv.replicas = append(sv.replicas, httptest.NewServer(handler("server.handler", server.New(cfg).Handler())))
	}
	sv.listeners = append(sv.listeners, sv.replicas...)
	sv.target, sv.tenants = sv.replicas[0].URL, []string{""}
	if w.replicas == 0 {
		return nil
	}
	addr := map[string]string{}
	var names []string
	for i, s := range sv.replicas {
		host := "replica-" + strconv.Itoa(i)
		names = append(names, "http://"+host)
		addr[host+":80"] = s.Listener.Addr().String()
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas: names,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: len(sv.clients),
			DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
				return (&net.Dialer{}).DialContext(ctx, network, addr[a])
			},
		},
	})
	if err != nil {
		return err
	}
	front := httptest.NewServer(handler("cluster.router", rt.Handler()))
	sv.listeners = append(sv.listeners, front)
	sv.target, sv.tenants = front.URL, serveTenants
	owners := map[string]bool{}
	for _, t := range sv.tenants {
		sv.owner[t] = rt.Ring().Owner(t + "|sf=1")
		owners[sv.owner[t]] = true
	}
	if len(owners) < w.replicas {
		return fmt.Errorf("the ring places tenants %v on %d of %d replicas; pick other names", sv.tenants, len(owners), w.replicas)
	}
	return nil
}

func (sv *serving) close() {
	for _, c := range sv.clients {
		c.CloseIdleConnections()
	}
	for _, l := range sv.listeners {
		l.Close()
	}
}

// poolStats reads the replicas' /v1/stats: pooled sessions and their
// cost-cache entries.
func (sv *serving) poolStats() (sessions, entries int, err error) {
	for _, s := range sv.replicas {
		resp, err := sv.clients[0].Get(s.URL + "/v1/stats")
		if err != nil {
			return 0, 0, err
		}
		var st server.StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return 0, 0, err
		}
		sessions += len(st.Pool)
		for _, p := range st.Pool {
			entries += p.SharedCacheEntries
		}
	}
	return sessions, entries, nil
}

// send posts one body as client c and checks the response.
func (sv *serving) send(c int, bd *body, tenant string, o *observer) sample {
	s := sample{key: bd.key}
	op := opIDs.Add(1)
	opID := strconv.FormatInt(op, 10)
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, sv.target+"/v1/optimize", bytes.NewReader(bd.json))
	if err != nil {
		s.fail = err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if sv.traced {
		req.Header.Set(spanHeader, opID)
	}
	var raw []byte
	resp, err := sv.clients[c].Do(req)
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.done = time.Now()
	s.wall = s.done.Sub(t0)
	switch {
	case err != nil:
		o.add("server.failed", 1)
		s.fail = err.Error()
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		o.add("server.rejected", 1)
		s.fail = "refused: " + resp.Status
	case resp.StatusCode != http.StatusOK:
		o.add("server.failed", 1)
		s.fail = resp.Status + ": " + string(raw)
	}
	if s.fail != "" {
		return s
	}
	var or server.OptimizeResponse
	if err := json.Unmarshal(raw, &or); err != nil {
		s.fail = "decoding response: " + err.Error()
		return s
	}
	tel := or.Telemetry
	work := newRecord(or.CostMS, or.VolcanoMS, len(or.Materialized), tel)
	ref := bd.ref
	s.rec = work
	if or.Batched {
		// A batched response's counters are its share of the shared
		// run's, which depends on who else was in the lane: only the
		// plan is a function of the request alone.
		s.rec, ref = work.planOnly(), ref.planOnly()
	}
	s.fail = sv.gold.check(s.key, s.rec, or.Plan.TotalMS, nil)
	if s.fail == "" && !s.rec.same(ref) {
		s.fail = fmt.Sprintf("input %s: server %+v, fresh library session %+v", s.key, s.rec, ref)
	}

	members := float64(max(or.BatchSize, 1))
	addWork(o, work, tel)
	o.observe("server.response_kb", float64(len(raw))/1e3)
	// A batched response reports the shared run's time; its share is 1/members.
	o.observe("core.opt_ms", ms(float64(or.OptNS))/members)
	o.add("server.preemptions", float64(or.Preemptions))
	o.add("batcher.requests", 1)
	o.add("batcher.members", members)
	if or.Batched {
		o.add("batcher.batched", 1)
	}
	o.add("batcher.shared_credit_ms", or.SharedCreditMS)
	if rep := resp.Header.Get(cluster.ReplicaHeader); rep != "" {
		o.add("cluster.routed", 1)
		o.add("cluster.served/"+rep, 1)
		if rep == sv.owner[tenant] {
			o.add("cluster.on_owner", 1)
		}
	}
	if !sv.traced {
		return s
	}

	// The op's spans: the client's round trip, the router's and the
	// replica's handler intervals inside it, and the stage times the
	// response reports laid end to end inside the handler's.
	parent := o.span(0, op, "client.request", t0, s.done)
	if iv, ok := sv.log.take("cluster.router", opID); ok {
		parent = o.span(parent, op, "cluster.router", iv.start, iv.end)
	}
	iv, ok := sv.log.take("server.handler", opID)
	if !ok {
		s.fail = "no handler span for op " + opID
		return s
	}
	h := o.span(parent, op, "server.handler", iv.start, iv.end)
	at := iv.start
	for _, st := range []struct {
		name string
		ns   int64
	}{
		{"server.queue_wait", or.QueueWaitNS}, {"server.build", or.BuildNS},
		{"server.opt", or.OptNS}, {"server.extract", or.ExtractNS},
	} {
		end := at.Add(time.Duration(st.ns))
		sp := o.span(h, op, st.name, at, end)
		if st.name == "server.opt" {
			coreSpans(o, sp, op, at, tel)
		}
		at = end
	}
	return s
}

// op is the loop's op: position n of the request sequence picks the body —
// every sqlEvery-th is the SQL batch, the rest cycle the specs — and the
// tenant. Batched clients all walk the sequence themselves, in step; the
// others share it out.
func (sv *serving) op(c, i int, o *observer) sample {
	n := i*len(sv.clients) + c
	if sv.batched {
		n = i
	}
	bd := &sv.bodies[len(sv.bodies)-1]
	if n%sqlEvery != sqlEvery-1 {
		bd = &sv.bodies[(n-n/sqlEvery)%(len(sv.bodies)-1)]
	}
	s := sv.send(c, bd, sv.tenants[n%len(sv.tenants)], o)
	if sv.traced && c == 0 && i%64 == 63 {
		// A shard that overflows is dropped whole: the replicas' entry
		// count falling between two polls is a reset.
		if _, n, err := sv.poolStats(); err == nil {
			if n < sv.lastEntries {
				sv.resets++
			}
			sv.lastEntries = n
		}
	}
	return s
}

// finish takes the end-of-phase readings of a traced run.
func (sv *serving) finish(o *observer) {
	if sessions, entries, err := sv.poolStats(); err == nil {
		o.add("server.pool_sessions", float64(sessions))
		o.add("physical.l2_entries", float64(entries)/float64(len(sv.replicas)))
	}
	o.add("physical.l2_resets", float64(sv.resets))
	o.add("physical.bestcost_warm_ns", bestCostWarm(sv.warmOracle.opt, sv.warmOracle.res.Materialized))
	if len(sv.owner) == 0 {
		return
	}
	resp, err := sv.clients[0].Get(sv.target + "/v1/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var rs cluster.RouterStats
	if json.NewDecoder(resp.Body).Decode(&rs) == nil {
		o.add("cluster.retries", float64(rs.Retried))
	}
}

func (w serveWorkload) setup(name string, seed int64, traced bool, o *observer) (*instance, error) {
	gold, err := loadGolden(name, seed)
	if err != nil {
		return nil, err
	}
	sv := &serving{traced: traced, batched: w.batched, gold: gold, owner: map[string]string{}}
	for c := 0; c < serveClients(); c++ {
		sv.clients = append(sv.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}
	if err := sv.buildBodies(w, seed, o); err != nil {
		return nil, err
	}
	inst := &instance{clients: len(sv.clients), inputs: len(sv.bodies), lockstep: w.batched, op: sv.op, close: sv.close}
	if traced {
		inst.finish = sv.finish
	}
	if err := sv.start(w); err != nil {
		sv.close()
		return nil, err
	}
	// Warm-up: every (tenant, body) pair once, then every client through
	// two turns of the SQL cadence so the connections and lanes are live.
	for _, t := range sv.tenants {
		for k := range sv.bodies {
			if s := sv.send(0, &sv.bodies[k], t, newObserver()); s.fail != "" {
				sv.close()
				return nil, fmt.Errorf("warm-up request %s: %s", sv.bodies[k].key, s.fail)
			}
		}
	}
	if err := warmUp(inst, 2*sqlEvery); err != nil {
		sv.close()
		return nil, err
	}
	_, sv.lastEntries, _ = sv.poolStats()
	sv.resets = 0
	return inst, nil
}
