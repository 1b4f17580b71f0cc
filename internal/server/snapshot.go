package server

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/physical"
)

// Cache snapshot transfer: GET /v1/cache/snapshot exports a pooled
// session's shared cost cache (cost keys plus memoized oracle values) as a
// portable physical.CacheSnapshot; PUT imports one into the session for
// its catalog key, warm-starting it. The snapshot's Scope is the catalog
// pool key ("sf=1", "sf=10+hash"), so an export can only ever be imported
// for the same catalog configuration. GET is allowed while draining — a
// drain-time export to a joining replica is the warm-handoff use case —
// while PUT is rejected, like any other state-changing request.

// defaultMaxSnapshotBytes bounds a PUT /v1/cache/snapshot body. Snapshots
// are far larger than optimize requests (every cache entry is ~100 bytes
// of JSON), so they get their own cap instead of maxBodyBytes.
const defaultMaxSnapshotBytes = 64 << 20

// parsePoolKey is the inverse of poolKey.String: "sf=<g>" with an
// optional "+hash" suffix for the extended operator set.
func parsePoolKey(s string) (poolKey, error) {
	var k poolKey
	rest, ok := strings.CutPrefix(s, "sf=")
	if !ok {
		return k, errors.New(`catalog key must start with "sf="`)
	}
	if r, hashed := strings.CutSuffix(rest, "+hash"); hashed {
		k.extended = true
		rest = r
	}
	sf, err := strconv.ParseFloat(rest, 64)
	if err != nil || math.IsNaN(sf) || math.IsInf(sf, 0) || sf <= 0 {
		return k, errors.New("catalog key carries no valid scale factor")
	}
	k.sf = sf
	return k, nil
}

// snapshotKeyOf resolves the catalog key of a snapshot request from its
// sf and extended query parameters (defaults: the server's DefaultSF,
// false).
func (s *Server) snapshotKeyOf(r *http.Request) (poolKey, error) {
	key := poolKey{sf: s.cfg.DefaultSF}
	if v := r.URL.Query().Get("sf"); v != "" {
		sf, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(sf) || math.IsInf(sf, 0) || sf <= 0 {
			return key, errors.New("sf must be a positive number")
		}
		key.sf = sf
	}
	if v := r.URL.Query().Get("extended"); v != "" {
		ext, err := strconv.ParseBool(v)
		if err != nil {
			return key, errors.New("extended must be a boolean")
		}
		key.extended = ext
	}
	return key, nil
}

// handleSnapshotGet exports the shared cache of the pooled session for the
// requested catalog key. 404 snapshot_missing when no session is pooled
// for it: a cold server has no warmth to hand out, and saying so lets a
// joining replica fall back to a cold start instead of importing an empty
// snapshot it would mistake for warmth.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	key, err := s.snapshotKeyOf(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error(), 0)
		return
	}
	sess, release, ok := s.pool.peek(key)
	if !ok {
		writeError(w, http.StatusNotFound, codeSnapshotMissing,
			"no pooled session for catalog "+key.String(), 0)
		return
	}
	defer release()
	enc, err := sess.ExportCache(key.String()).Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternalError, err.Error(), 0)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(enc)
}

// SnapshotImportResponse is the body of a successful PUT
// /v1/cache/snapshot (and what Server.WarmFrom reports).
type SnapshotImportResponse struct {
	// Catalog is the pool key the snapshot warmed.
	Catalog string `json:"catalog"`
	// Entries is how many cache entries the snapshot carried.
	Entries int `json:"entries"`
}

func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, codeDraining, "server is draining", 5*time.Second)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, defaultMaxSnapshotBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "snapshot too large", 0)
			return
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "reading snapshot: "+err.Error(), 0)
		return
	}
	res, err := s.warmFrom(body)
	if err != nil {
		s.writeSnapshotError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// writeSnapshotError maps a warm-start failure onto the wire: scope
// problems are 409 snapshot_mismatch (the snapshot is fine, just not for
// this server); everything else about the snapshot itself is a 400.
func (s *Server) writeSnapshotError(w http.ResponseWriter, err error) {
	var se *physical.SnapshotError
	if errors.As(err, &se) && se.Reason == "scope" {
		writeError(w, http.StatusConflict, codeSnapshotMismatch, err.Error(), 0)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, err.Error(), 0)
}

// WarmFrom warm-starts the server from an encoded cache snapshot (the
// bytes GET /v1/cache/snapshot returns): the snapshot's scope names the
// catalog pool key, whose session is created if needed and fed the
// entries. Every later optimize on that catalog consumes the imported
// oracle values (Telemetry.SharedOracleHits) instead of re-evaluating
// them. It is the programmatic form of PUT /v1/cache/snapshot, used by
// mqoserver's -warm-from flag at startup.
func (s *Server) WarmFrom(data []byte) (*SnapshotImportResponse, error) {
	return s.warmFrom(data)
}

func (s *Server) warmFrom(data []byte) (*SnapshotImportResponse, error) {
	snap, err := physical.DecodeCacheSnapshot(data)
	if err != nil {
		return nil, err
	}
	key, err := parsePoolKey(snap.Scope)
	if err != nil {
		return nil, &physical.SnapshotError{Reason: "scope", Detail: snap.Scope + ": " + err.Error()}
	}
	served := false
	for _, sf := range s.cfg.AllowedSFs {
		if sf == key.sf {
			served = true
		}
	}
	if !served {
		return nil, &physical.SnapshotError{Reason: "scope",
			Detail: "snapshot is for catalog " + key.String() + ", which this server does not serve"}
	}
	sess, release, err := s.pool.acquire(key)
	if err != nil {
		return nil, err
	}
	defer release()
	n, err := sess.ImportCache(snap, key.String())
	if err != nil {
		return nil, err
	}
	return &SnapshotImportResponse{Catalog: key.String(), Entries: n}, nil
}
