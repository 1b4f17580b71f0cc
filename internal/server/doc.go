// Package server is the HTTP serving front end over repro.Session: a thin
// JSON API that turns the ctx-aware, concurrent-safe optimizer into a
// multi-tenant network service with explicit admission control.
//
// # Endpoints
//
//	POST /v1/optimize  optimize one batch (workload spec or SQL payload);
//	                   returns the materialization set, a plan summary and
//	                   the full core.Telemetry of the run
//	GET  /v1/stats     per-tenant admission counters incl. quota-bucket
//	                   refill state (quota_remaining, refill_per_sec,
//	                   next_admit_ms), session-pool stats (live + retired
//	                   aggregate; stage times build_ns, opt_ns, extract_ns
//	                   and publish_ns; build reuse, see "Session stats"),
//	                   recovered-panic count, per-catalog breaker states
//	POST /v1/tenants/{tenant}/reset  admin: refill the tenant's quota
//	                   bucket to capacity and return its fresh stats
//	GET  /healthz      200 while serving ("ok", or "degraded" with the
//	                   non-closed breakers listed), 503 while draining
//
// # Session stats
//
// Each pooled session's "session" object, and the "retired_sessions"
// aggregate of the sessions the pool has dropped, carry the per-run
// counters (exact sums over responses) and the session's build accounting,
// which is not per-run and stays out of that reconciliation:
//
//   - recipe_hits / recipe_misses are the next pair weighted by query
//     count: the queries of the batches that were reused whole, and of the
//     batches that were built.
//   - compiled_hits / compiled_misses count batches: a hit is a request (or
//     lane) whose exact batch — same queries, names and order — the session
//     had compiled before and still held, so the run got that DAG and
//     search space back and skipped the build; a miss built them.
//     build_ns shows the difference.
//   - compiled_nodes is a gauge: the operator nodes of the DAGs the session
//     holds right now (bounded; ≈ 1.6 kB each). A dropped session releases
//     them with its cost caches, so the retired aggregate reads 0.
//
// A request is refused with 400 when one of its blocks joins more than
// logical.MaxBlockSources sources: the DAG holds every connected subset of
// a block's sources, so the bound is checked before anything is built.
//
// # Admission-control contract
//
// Every optimize request is attributed to a tenant (the X-Tenant header or
// the request's "tenant" field; "default" when absent) and passes the
// tenant's admission gate before any optimizer work happens. The gate is
// the tenant's Config.Tenants entry, else the table's "*" entry; a table
// without "*", even an empty one, answers 403 unknown_tenant instead, and
// a nil table gates every tenant under TenantConfig's defaults:
//
//   - Concurrency: at most MaxConcurrent requests of a tenant run at once.
//   - Queueing: excess requests wait in a bounded per-tenant queue of
//     QueueDepth slots. A request whose queue wait exceeds QueueWait is
//     rejected with 503 and a Retry-After header; a request arriving at a
//     full queue is rejected immediately with 429 and Retry-After. Without
//     a shared slot pool (SchedConfig.Slots == 0) a freed slot goes to the
//     head of its tenant's own queue; with one, dispatch order is the
//     scheduling policy's (below).
//   - Quota: when CallQuota > 0, the tenant's completed requests are
//     charged their actual Telemetry.OracleCalls against a token bucket;
//     a tenant whose bucket is empty is rejected with 429 and a
//     Retry-After computed from the actual refill rate. With
//     RefillPerSec == 0 the bucket is manual-reset-only (ResetQuota or
//     the admin endpoint), and exhaustion also cuts the tenant's wait
//     queue — queued requests get the 429 immediately instead of burning
//     their deadline.
//   - Budgets: TimeBudget and CallBudget cap each admitted request via
//     repro.WithTimeBudget / WithOracleCallBudget. A request may ask for
//     tighter budgets than the tenant's; looser ones are clamped to the
//     tenant cap. A budgeted run that stops early still returns 200 — the
//     deterministic best-so-far result with Telemetry.Stopped saying why.
//   - Cancellation: the request context is the optimize context, so a
//     client disconnect stops the run between oracle rounds and frees the
//     tenant's slot promptly.
//
// Rejected requests never touch a session: they are not counted in
// SessionStats and spend no oracle calls. Admitted requests are charged
// exactly once, on completion, even when the client has gone away.
// Faulted requests (below) are charged the oracle calls their run made
// before the fault; in SessionStats they appear only as Faults.
//
// Every non-2xx body carries a stable machine-readable "code" field
// (bad_request, body_too_large, queue_full, quota_exhausted,
// queue_timeout, tenant_overflow, unknown_tenant, draining, breaker_open,
// resume_mismatch, internal_panic, internal_error) — clients dispatch on
// the code; the human-readable "error" text is not contractual.
//
// # Scheduling and SLO-aware preemption
//
// With SchedConfig.Slots > 0 every tenant additionally competes for a
// shared worker-slot pool, dispatched by DRR unless SchedConfig.FIFO:
//
//   - DRR is deficit round-robin: a rotation pointer parks on one tenant, replenishes its
//     deficit by Quantum×Weight once per visit, serves it while the
//     deficit covers the head request's cost (its query count), then
//     advances. Over any backlogged window
//     each tenant's share of dispatched work is proportional to its
//     Weight; a request costing more than one quantum accumulates deficit
//     across rotations instead of starving or being starved.
//   - Earliest-deadline-first cut-ahead: a waiter with a deadline (the
//     request's deadline_ms, falling back to the tenant's DeadlineMS) may
//     jump the round-robin order, borrowing up to one Quantum×Weight of
//     deficit debt. The borrow bound keeps an SLO tenant from starving
//     bulk tenants: past it, the deadline waiter falls back to weighted
//     order until its deficit recovers. Deficits (debts and credits
//     alike) expire when a tenant's queue drains — fairness is over busy
//     periods, not eternity.
//   - FIFO dispatches strictly in global arrival order and ignores
//     weights and deadlines — the baseline the CI fairness gate measures
//     DRR against. It never pauses a run.
//
// Under DRR, a deadline waiter that cannot be dispatched picks one
// running preemptible victim — the grant with the latest deadline,
// deadline-less bulk work first — and asks it for its slot. A run is
// preemptible exactly when its lane has one live member, whoever formed
// the lane and whatever its strategy (Server.optimize). The run polls its
// grant at every stop check — before each oracle round, round 1 included,
// and before the decomposition — and at the first poll after the ask it
// pauses: Grant.Yield gives the slot back (the freed slot goes to the
// earliest-deadline waiter), re-enters the tenant's queue at the run's
// original arrival position — ahead of later arrivals — and blocks until
// the slot is granted again, and the run then continues in place, with the
// same optimizer, memo and caches. The client sees one ordinary 200 whose
// "preemptions" field counts the pauses. If the re-grant does not come
// within the tenant's queue wait, the run stops at that check and the
// client gets the completed-prefix response with Stopped "preempted" and,
// under a lazy driver, a resumable checkpoint — the same contract as a
// budget stop; a run
// stranded before round 1 carries the start checkpoint. (Pricing the
// prefix and extracting its plan then run outside any slot.)
//
// What preemption conserves:
//
//   - Everything deterministic: the result — materialization set, cost,
//     volcano cost, benefit — and the work telemetry (core.Telemetry.Work:
//     OracleCalls, BCCalls, Rounds, Pruned, …) are the unpreempted run's,
//     however many times the run was paused; a pause re-prices nothing.
//     The CI fairness gate and the preemption suites pin this.
//   - The tenant's quota is charged the response's OracleCalls — charge
//     and report always agree.
//   - The clocks: a pause is left out of the run's time budget (a run
//     paused k times still gets its tenant's cap of running time, not
//     k+1 of them), of its phase times and of opt_ns; queue_wait_ns adds
//     every re-grant wait to the admission wait, so the response's stage
//     times still cover the handler's wall.
//   - The cache-effect counters (CacheHits, SharedHits, ComputedKeys) are
//     NOT: a run that takes the slot during a pause may publish into the
//     session cache the paused run then reads. (On more than one core they
//     differ even between two identical runs: run-equality contracts are
//     stated over core.Telemetry.Work, never over the whole struct.)
//
// # One request pipeline
//
// Every optimize request takes one path: decode → validate → admit →
// build → lane of ≥ 1 → one Session.OptimizeShared run → attribute →
// encode (handleOptimize, then Server.runLane). Whatever is a pure
// function of the request and the config — body size (1 MiB) and shape,
// query count (MaxQueries), tenant name, the sf allowlist — is rejected
// before admission, so a request that can only be a 4xx never holds a
// slot or draws scheduler deficit.
//
// A lane is the set of requests one shared run serves, keyed by
// everything that must match for that run to be exactly what each member
// asked for: the catalog (pool key), the fully-clamped effective run spec
// (strategy, time and call budgets after tenant caps and
// degradation clamps), and the degradation flag. Tenancy is deliberately
// NOT in the key — cross-tenant sharing is the point, and attribution
// keeps each tenant's accounting exact. A solo request is a lane of one:
// with batching off (the zero Config.Batch), or for a request carrying a
// resume checkpoint, the handler forms the lane and runs it on its own
// goroutine. With Config.Batch.Enabled the batcher only decides WHO is in
// the lane: requests accumulate per key and flush when MaxRequests
// members wait, when their combined query count reaches MaxQueries (if
// set), or when the first member has waited MaxDelay.
//
// runLane excises members whose clients already disconnected (answered
// 499, charged nothing), then coalesces the rest: members whose batches
// are structurally identical — equal per-query memo fingerprints and
// names — collapse into ONE group (eight identical clients cost one run,
// the throughput lever), while distinct batches stay separate groups of
// one combined DAG. Attribution is exact, not estimated: each member
// receives its own materialization-set slice, its own plan summary (only
// its queries, only the steps it owns a share of), its own cost/benefit
// plus a SharedCreditMS subsidy, and a conserving telemetry share —
// summing the members' Telemetry reproduces the run's exactly, which is
// what the tenant quotas are charged (one member of an n-way coalesced
// group pays ~1/n of that group's oracle calls; a lane of one gets the
// run itself). Faulted runs conserve the same way, by the same split
// (memberShares): the telemetry burned before the panic is apportioned by
// group query count, then evenly within a coalesced group, and charged
// under one incident id and one session quarantine. Disconnection of SOME members never aborts the run
// the survivors are riding; only when every client is gone is it
// cancelled. When the combined build fails — one member's batch is
// invalid against the catalog — each member is re-run as its own lane of
// one, so the guilty request gets its own 400 and its peers are served.
//
// What a lane of one may carry that a larger lane may not — selected by
// the observed number of live members, never by a setting, so a request
// the batch timer catches alone gets all of it:
//
//   - Checkpoints and resume. A checkpoint binds to the search space of
//     the run that produced it. A lane of one's is its request's own,
//     which the client can name again; a larger lane's is the combined
//     DAG of whoever shared it, which nobody can.
//   - PlanText. The rendered plan spans every query of the run; in a
//     larger lane that would show one tenant another tenant's queries.
//   - Preemption. Suspending a run needs a checkpoint to resume from and
//     one grant to yield; a larger lane has neither, and stalling it
//     would make every member wait on one member's re-grant.
//
// Responses that came through the batcher are marked "batched" with the
// lane's live size; otherwise a lane of one's response is the same
// whoever formed the lane (TestLaneOfOneMatchesSolo). Sizing: members
// waiting in a lane hold their admission slots, so a tenant's
// MaxConcurrent should be at least Batch.MaxRequests or it can never fill
// a lane (the default 5ms MaxDelay bounds the wait regardless).
//
// # Fault tolerance
//
// A panic inside an optimization — in the batched-oracle workers or the
// handler itself — never kills the process. Worker goroutines recover into a typed faultinject.PanicError;
// the handler answers 500 with code internal_panic, an incident id (also
// logged with the stack), and any round-boundary checkpoint the run had
// committed. The owning session is quarantined: removed from the pool at
// once (in-flight pins defer its retirement, so concurrent runs keep
// their shared cache) and rebuilt on the key's next request; its lifetime
// stats fold into the retired aggregate /v1/stats reports, so telemetry
// conservation — pooled + retired stats = sum over responses — survives
// the churn.
//
// Budget- or cancellation-stopped runs return a resumable checkpoint in
// the response; POST it back as "resume" to continue bit-identically on
// any server instance whose batch, sf and extended_ops reproduce the
// original search space (fingerprint-verified; mismatch is a 409 with
// code resume_mismatch).
//
// Each catalog (pool key) carries a circuit breaker. Repeated recovered
// panics or time-budget deadline stops move it closed → degraded —
// requests still answer 200 but under budgets clamped to 2 s and 50,000
// oracle calls and the cheap LazyGreedy fallback, flagged
// "degraded":true — and, if failures continue, degraded → open: 503 +
// Retry-After with code breaker_open
// until a cooldown admits one degraded probe, whose outcome decides
// between reopening and recovery. /healthz reports any non-closed breaker
// under status "degraded" (still 200 — the instance serves).
//
// Tenant names are attacker-controlled input: they must be short
// printable ASCII (400 otherwise), and a non-strict controller allocates
// state for at most 4096 distinct lazily-created names (429 beyond that),
// so request-invented tenants cannot grow server memory without bound.
//
// # Draining
//
// Server.Drain flips the server into draining mode: new optimize requests
// are rejected with 503 + Retry-After and /healthz turns 503, while
// requests already admitted (running or queued) finish normally. The
// mqoserver binary calls Drain on SIGTERM/SIGINT and then http.Server.
// Shutdown, which waits for the in-flight handlers.
//
// # Determinism
//
// The front end adds no nondeterminism: for a given spec/SQL payload and
// strategy, the response's materialization set, costs and
// work telemetry (core.Telemetry.Work) are bit-identical to a direct
// Session.Optimize call — by construction, since a request is served by
// the same OptimizeShared call Optimize makes (the session's shared cost
// cache can only add SharedHits, never change a result). The e2e tests pin this byte-for-byte. A
// preempted run pauses and continues in place, so its result and work
// telemetry stay the unpreempted run's too (see the scheduling section).
package server
