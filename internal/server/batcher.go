package server

import (
	"sync"
	"time"

	"repro/internal/logical"
)

// BatchConfig parameterizes cross-request continuous batching. The zero
// value disables it: every request is served as its own lane of one, so
// batching is strictly opt-in per server.
type BatchConfig struct {
	// Enabled turns the batch scheduler on. Disabled, no request waits for
	// peers.
	Enabled bool `json:"enabled,omitempty"`
	// MaxRequests flushes a lane as soon as this many requests wait in it
	// (default 8).
	MaxRequests int `json:"max_requests,omitempty"`
	// MaxDelayMS is the longest the first request of a lane waits for
	// peers before the lane flushes anyway (default 5).
	MaxDelayMS int64 `json:"max_delay_ms,omitempty"`
	// MaxQueries flushes a lane when its combined query count reaches this
	// bound (0 = requests-only flushing). It caps the size of the combined
	// DAG one shared run must carry.
	MaxQueries int `json:"max_queries,omitempty"`
}

func (c BatchConfig) normalize() BatchConfig {
	if c.MaxRequests <= 0 {
		c.MaxRequests = 8
	}
	if c.MaxDelayMS <= 0 {
		c.MaxDelayMS = 5
	}
	return c
}

func (c BatchConfig) maxDelay() time.Duration {
	return time.Duration(c.MaxDelayMS) * time.Millisecond
}

// batcher is the continuous-batching scheduler. It only decides WHO is in
// a lane: admitted requests accumulate in per-laneKey lanes, and each
// flush (by size, combined query count or deadline) hands the detached
// lane to Server.runLane, the same path a solo request's lane of one
// takes.
type batcher struct {
	srv *Server
	cfg BatchConfig

	mu    sync.Mutex
	lanes map[laneKey]*lane

	// newTimer is the deadline-clock hook; tests swap it for a manual
	// trigger so flush timing is deterministic.
	newTimer func(time.Duration) (<-chan time.Time, func() bool)
}

func newBatcher(srv *Server, cfg BatchConfig) *batcher {
	return &batcher{
		srv:   srv,
		cfg:   cfg.normalize(),
		lanes: make(map[laneKey]*lane),
		newTimer: func(d time.Duration) (<-chan time.Time, func() bool) {
			t := time.NewTimer(d)
			return t.C, t.Stop
		},
	}
}

// coalesceBatches deduplicates member batches by fingerprint — the
// member's memo.BatchKey: equal keys are structurally identical batches,
// served from one shared sub-run. The returned groups hold one batch per
// distinct fingerprint (first submitter wins, order preserved), and
// memberGroup maps each member to its group. Members without a fingerprint
// (some query is not fingerprintable) get their own group: they still
// batch, they just never deduplicate.
func coalesceBatches(members []*batchMember) (groups []*logical.Batch, memberGroup []int) {
	memberGroup = make([]int, len(members))
	index := make(map[string]int, len(members))
	for i, m := range members {
		if m.fp != "" {
			if gi, ok := index[m.fp]; ok {
				memberGroup[i] = gi
				continue
			}
			index[m.fp] = len(groups)
		}
		memberGroup[i] = len(groups)
		groups = append(groups, m.batch)
	}
	return groups, memberGroup
}

// submit enqueues one admitted request and blocks until its outcome is
// delivered. The outcome always arrives: flushes deliver to every member
// (including pre-run cancellations), and the run path is panic-isolated.
func (b *batcher) submit(key laneKey, m *batchMember) batchOutcome {
	b.mu.Lock()
	l := b.lanes[key]
	if l == nil {
		l = &lane{key: key, batched: true, detached: make(chan struct{})}
		ch, stop := b.newTimer(b.cfg.maxDelay())
		l.stopTimer = stop
		b.lanes[key] = l
		go func() {
			select {
			case <-ch:
				b.flush(l)
			case <-l.detached:
			}
		}()
	}
	l.members = append(l.members, m)
	l.queries += len(m.batch.Queries)
	if len(l.members) >= b.cfg.MaxRequests || (b.cfg.MaxQueries > 0 && l.queries >= b.cfg.MaxQueries) {
		b.detachLocked(l)
		b.mu.Unlock()
		// The filling request's goroutine drives the shared run; its own
		// outcome is buffered, so running before receiving cannot deadlock.
		b.run(l)
	} else {
		b.mu.Unlock()
	}
	return <-m.outcome
}

// detachLocked removes the lane from the map and disarms its timer; the
// caller then owns the lane exclusively.
func (b *batcher) detachLocked(l *lane) {
	delete(b.lanes, l.key)
	close(l.detached)
	l.stopTimer()
}

// flush is the deadline trigger: detach the lane unless the size trigger
// beat the timer, then run it.
func (b *batcher) flush(l *lane) {
	b.mu.Lock()
	if b.lanes[l.key] != l {
		b.mu.Unlock()
		return
	}
	b.detachLocked(l)
	b.mu.Unlock()
	b.run(l)
}

// run executes one detached lane on the calling goroutine. The lane may
// be running on a timer goroutine, where an escaped panic would kill the
// process: the backstop answers every member not yet delivered instead.
func (b *batcher) run(l *lane) {
	s := b.srv
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		id := s.incident()
		s.panics.Add(1)
		s.logf("server: batch %s: panic recovered (incident %s): %v", l.key.pool, id, rec)
		for _, m := range l.members {
			m.deliver(incidentOutcome("internal error", id, 0))
		}
	}()
	s.runLane(l)
}
