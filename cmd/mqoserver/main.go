// Command mqoserver serves multi-query optimization over HTTP with
// per-tenant admission control (see internal/server for the API and the
// admission contract).
//
// Usage:
//
//	mqoserver [-listen :8080] [-tenants tenants.json] [-strict-tenants]
//	          [-pool-size 4] [-sf 1] [-sfs 1,10,100] [-max-queries 1024]
//	          [-max-concurrent 4] [-queue-depth 16] [-queue-wait 5s]
//	          [-time-budget 0] [-call-budget 0] [-call-quota 0]
//	          [-refill-per-sec 0] [-quota-burst 0] [-weight 1] [-deadline 0]
//	          [-sched-slots 0] [-sched-quantum 64] [-sched-policy drr]
//	          [-no-preempt] [-drain-grace 2s] [-drain-timeout 30s]
//	          [-breaker-off] [-breaker-failures 3] [-breaker-cooldown 10s]
//	          [-degraded-time-budget 2s] [-degraded-call-budget 50000]
//	          [-batch] [-batch-max 8] [-batch-delay 5ms] [-batch-queries 0]
//	          [-warm-from snapshot.json | -warm-from http://peer:8080/]
//
// -batch enables cross-request continuous batching: admitted requests
// with the same catalog and effective run options briefly wait for peers
// (-batch-delay), are optimized as one shared run, and each receives its
// exact attributed slice — plan, costs and a conserving telemetry share
// the tenant quota is charged with. See internal/server's package doc
// for the batching contract.
//
// -sched-slots gives all tenants a shared worker-slot pool scheduled by
// -sched-policy: "drr" (deficit-round-robin weighted-fair dispatch with
// earliest-deadline-first cut-ahead and — unless -no-preempt — deadline-
// aware preemption of checkpointable runs at round boundaries) or "fifo"
// (global arrival order). Tenants with a call_quota refill continuously
// at refill_per_sec tokens per second up to quota_burst (default: the
// quota itself); POST /v1/tenants/{name}/reset refills a bucket manually.
//
// The -tenants file is a JSON object mapping tenant name to its limits;
// the -max-concurrent/-queue-*/-*-budget/-weight/-deadline flags
// configure the default tenant applied to names missing from the table:
//
//	{
//	  "acme":  {"max_concurrent": 8, "queue_depth": 32, "queue_wait_ms": 2000,
//	            "time_budget_ms": 1000, "call_budget": 20000, "call_quota": 1000000,
//	            "refill_per_sec": 5000, "quota_burst": 2000000, "weight": 4},
//	  "guest": {"max_concurrent": 1, "queue_depth": 4, "call_quota": 50000,
//	            "deadline_ms": 500}
//	}
//
// Each catalog (scale factor + operator set) carries a circuit breaker:
// repeated recovered panics or deadline stops move it to degraded serving
// (clamped budgets, LazyGreedy fallback, "degraded":true in responses) and
// then to open (503 + Retry-After until -breaker-cooldown admits a probe).
// -breaker-off disables it entirely.
//
// On SIGTERM/SIGINT the server drains: for -drain-grace the listener
// stays open while /healthz answers 503 (so load balancers observe the
// drain and stop routing) and new optimize requests are rejected with
// 503 + Retry-After; then the listener closes and in-flight requests get
// up to -drain-timeout to finish.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/strictjson"
)

func main() {
	log.SetFlags(0)
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		tenantsPath   = flag.String("tenants", "", "JSON file mapping tenant name to its admission config")
		strictTenants = flag.Bool("strict-tenants", false, "reject tenants missing from the -tenants table (403)")
		poolSize      = flag.Int("pool-size", 4, "max catalog-keyed sessions kept in the pool")
		sf            = flag.Float64("sf", 1, "default TPCD scale factor for requests naming none")
		sfs           = flag.String("sfs", "1,10,100", "comma-separated scale factors requests may name (the sf is a session-pool key, so this set is closed)")
		maxQueries    = flag.Int("max-queries", 1024, "max queries per request batch (-1 = unbounded)")
		maxConc       = flag.Int("max-concurrent", 4, "default tenant: concurrent requests")
		queueDepth    = flag.Int("queue-depth", 16, "default tenant: FIFO queue depth")
		queueWait     = flag.Duration("queue-wait", 5*time.Second, "default tenant: max queue wait")
		timeBudget    = flag.Duration("time-budget", 0, "default tenant: per-request optimization wall-clock cap (0 = none)")
		callBudget    = flag.Int("call-budget", 0, "default tenant: per-request oracle-call cap (0 = none)")
		callQuota     = flag.Int64("call-quota", 0, "default tenant: cumulative oracle-call quota (0 = unlimited)")
		refillPerSec  = flag.Float64("refill-per-sec", 0, "default tenant: quota token-bucket refill rate in oracle calls/sec (0 = manual reset only)")
		quotaBurst    = flag.Int64("quota-burst", 0, "default tenant: quota bucket capacity (0 = the quota itself)")
		weight        = flag.Int("weight", 1, "default tenant: weighted-fair (DRR) share of the scheduler slots")
		deadline      = flag.Duration("deadline", 0, "default tenant: relative SLO deadline applied to its requests (0 = none)")

		schedSlots   = flag.Int("sched-slots", 0, "shared worker-slot pool all tenants compete for (0 = per-tenant limits only)")
		schedQuantum = flag.Int("sched-quantum", 64, "DRR deficit quantum in query-count units, scaled by each tenant's weight")
		schedPolicy  = flag.String("sched-policy", server.PolicyDRR, `scheduling policy: "drr" or "fifo"`)
		noPreempt    = flag.Bool("no-preempt", false, "disable deadline-aware preemption while keeping DRR dispatch")
		drainGrace   = flag.Duration("drain-grace", 2*time.Second, "how long to keep answering (503) after SIGTERM so load balancers observe the drain before the listener closes")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long in-flight requests get after SIGTERM")

		batch        = flag.Bool("batch", false, "enable cross-request continuous batching (one shared run per flush, exact per-request attribution)")
		batchMax     = flag.Int("batch-max", 8, "batching: flush a lane once this many requests wait in it")
		batchDelay   = flag.Duration("batch-delay", 5*time.Millisecond, "batching: max time the first request of a lane waits for peers")
		batchQueries = flag.Int("batch-queries", 0, "batching: flush a lane once its combined query count reaches this (0 = size/deadline flushing only)")

		warmFrom = flag.String("warm-from", "", "cache snapshot to warm-start from: a file path, an http(s) URL, or a peer base URL ending in / (its /v1/cache/snapshot is fetched); the catalog it names starts with the donor's learned costs and memoized oracle values")

		breakerOff      = flag.Bool("breaker-off", false, "disable the per-catalog circuit breaker")
		breakerFailures = flag.Int("breaker-failures", 3, "consecutive faults that degrade a catalog, and again that open it; consecutive successes that close it")
		breakerCooldown = flag.Duration("breaker-cooldown", 10*time.Second, "how long an open catalog rejects before admitting a degraded probe")
		degradedTime    = flag.Duration("degraded-time-budget", 2*time.Second, "wall-clock clamp on requests served degraded")
		degradedCalls   = flag.Int("degraded-call-budget", 50000, "oracle-call clamp on requests served degraded")
	)
	flag.Parse()

	cfg := server.Config{
		DefaultTenant: server.TenantConfig{
			MaxConcurrent: *maxConc,
			QueueDepth:    *queueDepth,
			QueueWaitMS:   queueWait.Milliseconds(),
			TimeBudgetMS:  timeBudget.Milliseconds(),
			CallBudget:    *callBudget,
			CallQuota:     *callQuota,
			RefillPerSec:  *refillPerSec,
			QuotaBurst:    *quotaBurst,
			Weight:        *weight,
			DeadlineMS:    deadline.Milliseconds(),
		},
		StrictTenants: *strictTenants,
		PoolSize:      *poolSize,
		MaxQueries:    *maxQueries,
		DefaultSF:     *sf,
		Logger:        log.Default(),
		Batch: server.BatchConfig{
			Enabled:     *batch,
			MaxRequests: *batchMax,
			MaxDelayMS:  batchDelay.Milliseconds(),
			MaxQueries:  *batchQueries,
		},
		Sched: server.SchedConfig{
			Slots:     *schedSlots,
			Quantum:   *schedQuantum,
			Policy:    *schedPolicy,
			NoPreempt: *noPreempt,
		},
		Breaker: server.BreakerConfig{
			Disabled:             *breakerOff,
			Threshold:            *breakerFailures,
			CooldownMS:           breakerCooldown.Milliseconds(),
			DegradedTimeBudgetMS: degradedTime.Milliseconds(),
			DegradedCallBudget:   *degradedCalls,
		},
	}
	if err := cfg.DefaultTenant.Validate(); err != nil {
		log.Fatalf("mqoserver: default tenant: %v", err)
	}
	if *schedPolicy != server.PolicyDRR && *schedPolicy != server.PolicyFIFO {
		log.Fatalf("mqoserver: -sched-policy: %q is not %q or %q", *schedPolicy, server.PolicyDRR, server.PolicyFIFO)
	}
	for _, part := range strings.Split(*sfs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			log.Fatalf("mqoserver: -sfs: %q is not a positive scale factor", part)
		}
		cfg.AllowedSFs = append(cfg.AllowedSFs, v)
	}
	if *tenantsPath != "" {
		table, err := loadTenants(*tenantsPath)
		if err != nil {
			log.Fatalf("mqoserver: %v", err)
		}
		cfg.Tenants = table
	}

	srv := server.New(cfg)
	if *warmFrom != "" {
		data, err := loadSnapshot(*warmFrom)
		if err != nil {
			log.Fatalf("mqoserver: -warm-from: %v", err)
		}
		res, err := srv.WarmFrom(data)
		if err != nil {
			log.Fatalf("mqoserver: -warm-from %s: %v", *warmFrom, err)
		}
		log.Printf("mqoserver: warm-started catalog %s with %d cache entries from %s",
			res.Catalog, res.Entries, *warmFrom)
	}
	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	done := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigs
		log.Printf("mqoserver: %v — draining (%v grace, then up to %v for in-flight requests)",
			sig, *drainGrace, *drainTimeout)
		srv.Drain()
		// Keep the listener open through the grace window: new requests
		// and health probes get an orderly 503 + Retry-After (so load
		// balancers take the instance out of rotation) instead of a TCP
		// refusal. Only then does Shutdown close the listener and wait
		// for in-flight handlers.
		time.Sleep(*drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("mqoserver: drain incomplete: %v", err)
		}
		close(done)
	}()

	log.Printf("mqoserver: listening on %s (pool %d, default sf %g, %d tenants preconfigured)",
		*listen, *poolSize, *sf, len(cfg.Tenants))
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mqoserver: %v", err)
	}
	<-done
	log.Printf("mqoserver: drained, bye")
}

// loadSnapshot fetches the -warm-from source: an http(s) URL (a peer's
// /v1/cache/snapshot when the URL ends in /) or a local file.
func loadSnapshot(src string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		if strings.HasSuffix(src, "/") {
			src += "v1/cache/snapshot"
		}
		resp, err := http.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, errors.New(src + ": " + resp.Status + ": " + strings.TrimSpace(string(data)))
		}
		return data, nil
	}
	return os.ReadFile(src)
}

// loadTenants reads the tenant table, strictly: unknown fields and
// trailing data are config typos, not extensions.
func loadTenants(path string) (map[string]server.TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var table map[string]server.TenantConfig
	if err := strictjson.Decode(data, &table); err != nil {
		return nil, errors.New(path + ": " + err.Error())
	}
	for name, tc := range table {
		if err := tc.Validate(); err != nil {
			return nil, errors.New(path + ": tenant " + name + ": " + err.Error())
		}
	}
	return table, nil
}
