package server

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/physical"
)

// laneKey identifies one stream of requests that one shared run can
// serve: they target the same catalog, resolve to the same effective run
// spec (strategy and budgets after tenant and degradation
// clamps) and the same degradation state, so the run's options are
// exactly what every member asked for. Tenancy is NOT part of the key —
// cross-tenant sharing is the point, and the attribution split keeps each
// tenant's accounting exact.
type laneKey struct {
	pool     poolKey
	spec     runSpec
	degraded bool
}

// batchMember is one admitted request in a lane. Its outcome channel
// (buffered) carries everything the handler needs to answer the client
// and charge the tenant quota.
type batchMember struct {
	ctx       context.Context
	batch     *logical.Batch
	fp        string // batch fingerprint; "" = not coalescible
	tenant    string
	planText  bool
	queueWait time.Duration
	// grant is the member's scheduler hold and resume the checkpoint its
	// client sent. Both are used only when the member is alone in its
	// lane: the run of a lane of one is the member's own search space, so
	// it can be paused, resumed and checkpointed; a larger lane's cannot.
	grant   *Grant
	resume  *repro.Checkpoint
	outcome chan batchOutcome
}

// batchOutcome is the terminal state of one member: a 200 response, an
// error response, or a pre-run cancellation. spent is the member's exact
// oracle-call share, charged against its tenant quota by the handler's
// admission release.
type batchOutcome struct {
	resp      *OptimizeResponse // non-nil: answer 200
	status    int               // else: answer status/body
	body      *errorBody
	spent     int
	cancelled bool // client gone before the run started: answer 499
}

// write answers the member's client.
func (o batchOutcome) write(w http.ResponseWriter) {
	switch {
	case o.cancelled:
		w.WriteHeader(499) // the client is gone; nginx's convention
	case o.resp != nil:
		writeJSON(w, http.StatusOK, o.resp)
	default:
		writeJSON(w, o.status, o.body)
	}
}

// lane is the unit the server runs: the requests one shared optimization
// serves. The handler forms a lane of one directly; the batcher
// accumulates larger ones (queries, detached and stopTimer are its
// bookkeeping) and detaches each exactly once before handing it to
// runLane.
type lane struct {
	key     laneKey
	members []*batchMember
	// batched marks a lane the batcher formed: its responses say so and
	// carry the lane size.
	batched bool

	queries   int
	detached  chan struct{}
	stopTimer func() bool
}

// deliver hands member m its outcome. The first outcome wins: the channel
// holds one, so a later one (the panic backstop sweeping members that
// were already answered) is dropped.
func (m *batchMember) deliver(o batchOutcome) {
	select {
	case m.outcome <- o:
	default:
	}
}

func errorOutcome(status int, code, msg string, spent int) batchOutcome {
	return batchOutcome{status: status, body: &errorBody{Error: msg, Code: code}, spent: spent}
}

// incidentOutcome is the 500 of a recovered panic, correlated with the
// server log by its incident id.
func incidentOutcome(what, id string, spent int) batchOutcome {
	o := errorOutcome(http.StatusInternalServerError, codeInternalPanic, what+" (incident "+id+")", spent)
	o.body.Incident = id
	return o
}

// runLane is the one request path: excise members whose clients already
// left, coalesce the rest by fingerprint, run one shared optimization on
// the lane's catalog session, and attribute the outcome per member. Every
// member is delivered one outcome unless runLane panics (the caller's
// backstop then answers).
func (s *Server) runLane(l *lane) {
	live := make([]*batchMember, 0, len(l.members))
	for _, m := range l.members {
		if m.ctx.Err() != nil {
			m.deliver(batchOutcome{cancelled: true}) // 499, never part of the run
			continue
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return
	}
	groups, memberGroup := coalesceBatches(live)

	sess, release, err := s.pool.acquire(l.key.pool)
	if err != nil {
		for _, m := range live {
			m.deliver(errorOutcome(http.StatusInternalServerError, codeInternalError, err.Error(), 0))
		}
		return
	}
	defer release()

	sres, err := s.optimize(sess, l.key, live, groups)
	if err != nil {
		var fe *repro.FaultError
		switch {
		case errors.As(err, &fe):
			s.faultLane(l.key.pool, live, sess, fe, groups, memberGroup)
		case len(live) > 1:
			// The combined build failed — typically one member's batch is
			// invalid against the catalog. Run each member as its own lane of
			// one, so an innocent member is never 400'd for a peer's request.
			for _, m := range live {
				s.runLane(&lane{key: l.key, members: []*batchMember{m}})
			}
		default:
			// The request's own fault: a batch invalid against the catalog
			// (unknown tables/columns, malformed predicates) or a checkpoint
			// from another search space. Neither gets as far as the search.
			status, code := http.StatusBadRequest, codeBadRequest
			if errors.Is(err, repro.ErrResumeMismatch) {
				status, code = http.StatusConflict, codeResumeMismatch
			}
			live[0].deliver(errorOutcome(status, code, err.Error(), 0))
		}
		return
	}
	if sres.Telemetry.Stopped == repro.StopPreempted {
		s.logf("server: %s: paused run not re-granted; answering with its completed prefix", live[0].tenant)
	}
	// A deadline stop is a breaker failure — a catalog that cannot finish
	// inside its budgets degrades before it monopolizes the pool.
	if sres.Telemetry.Stopped == repro.StopTimeBudget {
		s.breaker.recordFailure(l.key.pool)
	} else {
		s.breaker.recordSuccess(l.key.pool)
	}

	shares := memberShares(sres.Telemetry, groups, memberGroup)
	if s.onLaneComplete != nil {
		s.onLaneComplete(sres.Telemetry, shares)
	}

	for k, m := range live {
		a := sres.Attributions[memberGroup[k]]
		resp := &OptimizeResponse{
			Tenant:         m.tenant,
			Strategy:       sres.Strategy.String(),
			Queries:        len(m.batch.Queries),
			Materialized:   make([]int, 0, len(a.Materialized)),
			CostMS:         a.Cost,
			VolcanoMS:      a.VolcanoCost,
			BenefitMS:      a.Benefit,
			SharedCreditMS: a.SharedCredit,
			Plan:           summarizeMemberPlan(sres.Plan, a),
			Telemetry:      shares[k],
			BuildNS:        sres.BuildTime.Nanoseconds(),
			OptNS:          sres.OptTime.Nanoseconds(),
			ExtractNS:      sres.ExtractTime.Nanoseconds(),
			QueueWaitNS:    (m.queueWait + m.grant.pausedFor).Nanoseconds(),
			Degraded:       l.key.degraded,
			Preemptions:    m.grant.Preemptions(),
			Batched:        l.batched,
		}
		if l.batched {
			resp.BatchSize = len(live)
		}
		for _, g := range a.Materialized {
			resp.Materialized = append(resp.Materialized, int(g))
		}
		// Checkpoints bind to the run's search space and plan text spans
		// every member's queries: both are only safe to hand out when the
		// member IS the whole lane.
		if len(live) == 1 {
			resp.Checkpoint = sres.Checkpoint
			if m.planText {
				resp.PlanText = sres.Plan.String()
			}
		}
		m.deliver(batchOutcome{resp: resp, spent: shares[k].OracleCalls})
	}
}

// optimize drives the lane's one shared run on sess. A lane of one is
// preemptible, however it was formed and whatever its strategy: the
// scheduler may ask for its slot to serve a nearer-deadline request, and
// the run, polling its grant at every stop check before an oracle round,
// then pauses in place — Grant.Yield gives the slot back and waits for
// the re-grant — and continues with the same optimizer and caches
// (Volcano, which makes no stop check, is asked and simply finishes).
// Only a failed re-grant stops it, with StopPreempted and, under a lazy
// driver, a checkpoint: the shape of a budget stop, so it becomes the
// normal response. A larger lane is never paused: it would stall every
// member for one victim's grant.
func (s *Server) optimize(sess *repro.Session, key laneKey, live []*batchMember, groups []*logical.Batch) (*repro.SharedResult, error) {
	// A panic past this point may have corrupted the shared session: pull
	// it from the pool before letting the caller's backstop answer.
	defer func() {
		if rec := recover(); rec != nil {
			s.pool.quarantine(key.pool, sess)
			s.breaker.recordFailure(key.pool)
			panic(rec)
		}
	}()
	ctx, stop := laneContext(live)
	defer stop()

	opts := key.spec.options()
	if m := live[0]; len(live) == 1 {
		if m.resume != nil {
			opts = append(opts, repro.WithResume(m.resume))
		}
		m.grant.preemptible.Store(true)
		defer m.grant.preemptible.Store(false)
		opts = append(opts, repro.WithYielder(m.grant))
	}
	return sess.OptimizeShared(ctx, groups, opts...)
}

// laneContext is the context of the lane's shared run. A lane of one runs
// under its member's request context; a larger lane's run is cancelled
// only when EVERY member's client is gone — one disconnect must not abort
// the run the others are riding.
func laneContext(live []*batchMember) (context.Context, func()) {
	if len(live) == 1 {
		return live[0].ctx, func() {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var remaining atomic.Int32
	remaining.Store(int32(len(live)))
	stops := make([]func() bool, 0, len(live))
	for _, m := range live {
		stops = append(stops, context.AfterFunc(m.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// faultLane answers every live member of a run stopped by a panic the
// optimizer recovered: one incident, one quarantine, one breaker failure —
// but each member is charged its exact telemetry share of the work the
// run burned before the panic, so the fault costs tenants what it actually
// cost the server.
func (s *Server) faultLane(pool poolKey, live []*batchMember, sess *repro.Session, fe *repro.FaultError, groups []*logical.Batch, memberGroup []int) {
	id := s.incident()
	s.panics.Add(1)
	s.pool.quarantine(pool, sess)
	s.breaker.recordFailure(pool)
	s.logf("server: lane %s: optimization faulted (incident %s): %v", pool, id, fe.Panic)
	burned := fe.Telemetry
	shares := memberShares(burned, groups, memberGroup)
	if s.onLaneFault != nil {
		s.onLaneFault(burned, shares)
	}
	for k, m := range live {
		o := incidentOutcome("optimization faulted", id, shares[k].OracleCalls)
		// A checkpoint from a combined run only resumes the combined
		// batch; hand it out only when this member is the whole run.
		if len(live) == 1 && len(groups) == 1 {
			o.body.Checkpoint = fe.Checkpoint
		}
		m.deliver(o)
	}
}

// memberShares apportions one lane run's telemetry — a completed run's or
// the work a faulted one burned — to its live members, the one way: across
// the coalesced groups by query count (repro.OptimizeShared's attribution),
// then evenly among the members each group was coalesced from
// (memberGroup[k] is member k's group). Both splits conserve exactly, so the
// members' shares sum to the run's telemetry — the invariant the quota
// charges and the race-stress audit check.
func memberShares(t core.Telemetry, groups []*logical.Batch, memberGroup []int) []core.Telemetry {
	// A one-way split is the identity, so a lone group or a lone member
	// takes its telemetry as it is.
	byGroup := []core.Telemetry{t}
	if len(groups) > 1 {
		counts := make([]int, len(groups))
		for gi, g := range groups {
			counts[gi] = len(g.Queries)
		}
		byGroup = repro.SplitTelemetry(t, counts)
	}
	sharers := make([][]int, len(groups)) // group -> positions in live
	for k, gi := range memberGroup {
		sharers[gi] = append(sharers[gi], k)
	}
	shares := make([]core.Telemetry, len(memberGroup))
	for gi, gt := range byGroup {
		if len(sharers[gi]) == 1 {
			shares[sharers[gi][0]] = gt
			continue
		}
		even := make([]int, len(sharers[gi]))
		for j := range even {
			even[j] = 1
		}
		for j, part := range repro.SplitTelemetry(gt, even) {
			shares[sharers[gi][j]] = part
		}
	}
	return shares
}

// summarizeMemberPlan renders one member's slice of the run's plan: the
// materialization steps its attribution owns a share of, and exactly its
// queries' plans — the whole plan for a lane of one. TotalMS is the
// member's attributed cost, so a client summing its own responses
// reconstructs the batch totals.
func summarizeMemberPlan(cp *physical.ConsolidatedPlan, a repro.Attribution) PlanSummary {
	ps := PlanSummary{
		Steps:   make([]StepSummary, 0, len(a.Materialized)),
		Queries: make([]QuerySummary, 0, a.QueryCount),
		TotalMS: a.Cost,
	}
	for _, st := range cp.Steps {
		if !a.Set.Has(st.Group) {
			continue
		}
		ps.Steps = append(ps.Steps, StepSummary{
			Group:       int(st.Group),
			Op:          st.Plan.Op,
			Rows:        st.Plan.Rows,
			CostMS:      st.Plan.Cost,
			WriteCostMS: st.WriteCost,
		})
	}
	for i := a.QueryOffset; i < a.QueryOffset+a.QueryCount && i < len(cp.Queries); i++ {
		name := ""
		if i < len(cp.QueryNames) {
			name = cp.QueryNames[i]
		}
		ps.Queries = append(ps.Queries, QuerySummary{
			Name:      name,
			Operators: countOps(cp.Queries[i]),
			CostMS:    cp.Queries[i].Cost,
		})
	}
	return ps
}
