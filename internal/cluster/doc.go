// Package cluster is the replicated serving tier's routing layer: a
// bounded-load consistent-hash router that spreads (tenant, catalog) keys
// over a fixed set of mqoserver replicas while keeping each key's traffic
// pinned to one replica, so that replica's session pool and SharedCache
// stay warm for it.
//
// # Placement
//
// Ring hashes each replica onto 64 virtual nodes (FNV-1a) and each
// request key — tenant + "|" + catalog pool key, e.g. "acme|sf=10+hash" —
// onto the same circle. Order(key) is the clockwise walk from the key's
// hash, deduplicated: a full, deterministic preference order. The ring is
// a pure function of the member *set* (input order and duplicates are
// irrelevant), so independent router instances agree on placement without
// coordination, and adding or removing a replica moves only the keys on
// the arcs that replica owned.
//
// # Affinity vs load
//
// Router forwards each request to the first replica in its key's
// preference order that is (a) eligible — up, not draining, circuit
// breaker for the request's catalog not open — and (b) under the
// bounded-load capacity ceil(c·(L+1)/n) for load factor c = 1.25,
// n eligible replicas and L requests in flight. Saturated-but-eligible
// replicas are used before ineligible ones; if nothing is eligible the
// router tries the remaining replicas optimistically, since its health
// view may be stale. With healthy replicas and moderate load this yields
// ≥90% affinity per key while capping how hot any one replica can run.
//
// # Retries
//
// A request is re-sent to the next replica in its preference order only
// when the failure proves it never executed: a transport-level error
// (connect refused, reset before response), or a 503 whose code is
// draining, breaker_open or queue_timeout — rejections the serving tier
// issues before any optimization work. Everything else, 4xx rejections in
// particular, relays to the client verbatim: quota and tenancy decisions
// belong to the replica, and shopping them around would let a client
// launder a 429 into a fresh budget. The retry budget (2 extra replicas)
// bounds worst-case fan-out. Relayed responses carry the serving replica
// in the X-MQO-Replica header.
//
// # Health
//
// Replica health combines an active /healthz poll every 2 s (status,
// per-catalog breaker states) with passive signals from forwarding: a
// dial error marks a replica down immediately (a forward that fails
// because the client itself disconnected says nothing about the replica
// and leaves its health alone), any response marks it reachable, a 503
// draining marks it draining. Down and draining replicas drop out of
// rotation and their keys spill to the next ring position; when a replica
// recovers, the same keys return to it — deterministically, because the
// preference order never changed.
//
// The vnode count, load factor, retry budget, poll period and body bound
// are constants, not options: the one setting a deployment makes besides
// the replica list is RouterConfig.DefaultSF, which must match the
// replicas' default scale factor.
package cluster
