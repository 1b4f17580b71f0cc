package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// replicaHealth is the router's view of one replica, refreshed by
// CheckNow (periodically, when the router runs its poll loop) and
// passively by forwarding outcomes (a dial error marks a replica down
// without waiting for the next poll; any successful response marks it
// back up).
type replicaHealth struct {
	// up is false after a failed health probe or a dial error; a down
	// replica drops out of rotation until a probe (or a successful
	// forward) brings it back.
	up bool
	// draining is true when /healthz answered with status "draining":
	// the replica finishes in-flight work but must get no new requests.
	draining bool
	// openCatalogs holds the catalog pool keys ("sf=1", "sf=10+hash")
	// whose circuit breaker the replica reports open. Keys routed to
	// those catalogs skip the replica — its server would only answer 503
	// breaker_open — while other catalogs keep using it.
	openCatalogs map[string]bool
	// lastErr is the last probe failure, for the aggregated /healthz.
	lastErr string
}

// eligible reports whether the replica may receive a request for the
// given catalog key.
func (h *replicaHealth) eligible(catalog string) bool {
	return h.up && !h.draining && !h.openCatalogs[catalog]
}

// healthzBody is the subset of a replica's /healthz the router reads.
type healthzBody struct {
	Status   string `json:"status"`
	Breakers map[string]struct {
		State string `json:"state"`
	} `json:"breakers"`
}

// healthTracker holds the health map under its own lock, separate from
// the router's load accounting, so a slow health sweep never blocks
// request routing.
type healthTracker struct {
	mu sync.Mutex
	m  map[string]*replicaHealth
}

func newHealthTracker(replicas []string) *healthTracker {
	t := &healthTracker{m: make(map[string]*replicaHealth, len(replicas))}
	for _, r := range replicas {
		// Optimistically healthy: a fresh router must not black-hole
		// traffic before its first poll completes; a wrong guess costs one
		// failed forward, which itself marks the replica down.
		t.m[r] = &replicaHealth{up: true}
	}
	return t
}

// snapshot returns a copy of one replica's state (zero value if unknown).
func (t *healthTracker) snapshot(replica string) replicaHealth {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.m[replica]; ok {
		cp := *h
		return cp
	}
	return replicaHealth{}
}

// eligible reports whether replica may serve catalog right now.
func (t *healthTracker) eligible(replica, catalog string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.m[replica]
	return ok && h.eligible(catalog)
}

// markDown records a passive failure (dial error on a forward).
func (t *healthTracker) markDown(replica string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.m[replica]; ok {
		h.up = false
		h.lastErr = err.Error()
	}
}

// markUp records a passive success: any response proves the replica is
// reachable (draining/breaker state stays as last probed — a 503 response
// updates those through its code, not here).
func (t *healthTracker) markUp(replica string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.m[replica]; ok {
		h.up = true
		h.lastErr = ""
	}
}

// markDraining flips the draining bit without waiting for a probe (the
// router learns it from a 503 draining rejection).
func (t *healthTracker) markDraining(replica string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.m[replica]; ok {
		h.draining = true
	}
}

// store replaces one replica's probed state.
func (t *healthTracker) store(replica string, h replicaHealth) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[replica] = &h
}

// CheckNow probes every replica's /healthz once, synchronously, and
// replaces the router's health view with the outcome: unreachable → down,
// status "draining" → draining, reported open breakers → per-catalog
// exclusions. The router calls it on its poll interval; tests call it
// directly to advance health state deterministically.
func (rt *Router) CheckNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, rep := range rt.ring.Replicas() {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			rt.health.store(rep, rt.probe(ctx, rep))
		}(rep)
	}
	wg.Wait()
}

// probe fetches one replica's /healthz and folds it into a health record.
func (rt *Router) probe(ctx context.Context, replica string) replicaHealth {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, replica+"/healthz", nil)
	if err != nil {
		return replicaHealth{lastErr: err.Error()}
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return replicaHealth{lastErr: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return replicaHealth{lastErr: err.Error()}
	}
	var body healthzBody
	_ = json.Unmarshal(data, &body) // a non-JSON healthz still proves liveness
	h := replicaHealth{up: true, draining: body.Status == "draining"}
	for cat, b := range body.Breakers {
		if b.State == "open" {
			if h.openCatalogs == nil {
				h.openCatalogs = make(map[string]bool)
			}
			h.openCatalogs[cat] = true
		}
	}
	return h
}

// pollLoop re-probes every healthInterval until ctx ends.
func (rt *Router) pollLoop(ctx context.Context) {
	t := time.NewTicker(healthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.CheckNow(ctx)
		}
	}
}
