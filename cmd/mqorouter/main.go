// Command mqorouter fronts a set of mqoserver replicas with a
// bounded-load consistent-hash router (see internal/cluster for the
// placement, retry and health contracts).
//
// Usage:
//
//	mqorouter -replicas http://h1:8080,http://h2:8080,http://h3:8080
//	          [-listen :8070] [-default-sf 1]
//
// -default-sf must match the replicas' -sf. The ring (64 virtual nodes a
// replica), the bounded-load factor (1.25), the retry budget (2 further
// replicas) and the health poll (every 2 s) are fixed, so every router
// built over one replica list places every key the same way.
//
// Each request's placement key is tenant + catalog (scale factor +
// operator set), so one tenant's traffic for one catalog stays on one
// replica and keeps that replica's session pool and SharedCache warm.
// POST /v1/optimize forwards the body unchanged (resume tokens included)
// and stamps the serving replica into X-MQO-Replica; GET /v1/stats
// aggregates every replica's stats under router-level counters; GET
// /healthz reports ok/degraded/down for the cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	log.SetFlags(0)
	var (
		listen    = flag.String("listen", ":8070", "listen address")
		replicas  = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		defaultSF = flag.Float64("default-sf", 1, "scale factor assumed for requests naming none (must match the replicas' -sf)")
	)
	flag.Parse()

	var reps []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			reps = append(reps, r)
		}
	}
	if len(reps) == 0 {
		log.Fatal("mqorouter: -replicas is required (comma-separated base URLs)")
	}

	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:  reps,
		DefaultSF: *defaultSF,
		Logger:    log.Default(),
	})
	if err != nil {
		log.Fatalf("mqorouter: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	go rt.Run(ctx)

	httpSrv := &http.Server{
		Addr:              *listen,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		<-ctx.Done()
		log.Print("mqorouter: signal received, shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			log.Printf("mqorouter: shutdown incomplete: %v", err)
		}
	}()

	log.Printf("mqorouter: listening on %s, routing to %d replicas %v", *listen, len(reps), reps)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mqorouter: %v", err)
	}
	log.Print("mqorouter: bye")
}
