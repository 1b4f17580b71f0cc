package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestServerRaceStress hammers one server with N tenants × M concurrent
// workers through deliberately small queues, then audits telemetry
// conservation: every 200 response carries its run's telemetry exactly
// once, rejected requests carry none, and the aggregate Session.Stats()
// of the pooled session equals the sum over the accepted responses —
// nothing lost, nothing double-counted. Run it under -race; it is the
// concurrency audit of the serving path.
func TestServerRaceStress(t *testing.T) {
	const (
		tenants   = 3
		workers   = 6 // concurrent workers per tenant — exceeds slots+queue
		perWorker = 4 // requests per worker
	)
	srv := New(Config{
		// Small slots and queues so contention queues (and may reject —
		// both outcomes are conserved below), with a queue wait long
		// enough that accepted work is not flaky under -race slowdowns.
		Tenants: map[string]TenantConfig{"*": {MaxConcurrent: 2, QueueDepth: 2, QueueWaitMS: 30000}},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A tiny two-query sharing pair keeps each optimize cheap while still
	// exercising the full DAG-build → greedy → extract path.
	body := `{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < 1200; SELECT l.tax FROM lineitem l WHERE l.shipdate < 1300", "strategy": "greedy"}`

	type tally struct {
		ok, rejected          int
		oracleCalls, bcCalls  int
		cacheHits, sharedHits int
		rounds, interrupted   int
	}
	var (
		mu  sync.Mutex
		sum tally
	)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		tenant := fmt.Sprintf("tenant-%d", ti)
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local tally
				for i := 0; i < perWorker; i++ {
					req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/optimize", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					req.Header.Set("X-Tenant", tenant)
					resp, err := http.DefaultClient.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					var or OptimizeResponse
					dec := json.NewDecoder(resp.Body)
					switch resp.StatusCode {
					case http.StatusOK:
						if err := dec.Decode(&or); err != nil {
							t.Errorf("decoding 200 body: %v", err)
							resp.Body.Close()
							return
						}
						local.ok++
						local.oracleCalls += or.Telemetry.OracleCalls
						local.bcCalls += or.Telemetry.BCCalls
						local.cacheHits += or.Telemetry.CacheHits
						local.sharedHits += or.Telemetry.SharedHits
						local.rounds += or.Telemetry.Rounds
						if or.Telemetry.Stopped.String() != "none" {
							local.interrupted++
						}
					case http.StatusTooManyRequests, http.StatusServiceUnavailable:
						local.rejected++
					default:
						t.Errorf("unexpected status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
				mu.Lock()
				sum.ok += local.ok
				sum.rejected += local.rejected
				sum.oracleCalls += local.oracleCalls
				sum.bcCalls += local.bcCalls
				sum.cacheHits += local.cacheHits
				sum.sharedHits += local.sharedHits
				sum.rounds += local.rounds
				sum.interrupted += local.interrupted
				mu.Unlock()
			}()
		}
	}
	wg.Wait()

	total := tenants * workers * perWorker
	if sum.ok+sum.rejected != total {
		t.Fatalf("accounted %d+%d responses, sent %d", sum.ok, sum.rejected, total)
	}
	if sum.ok == 0 {
		t.Fatal("every request was rejected; stress parameters are wrong")
	}
	t.Logf("stress: %d ok, %d rejected, %d oracle calls, %d shared hits",
		sum.ok, sum.rejected, sum.oracleCalls, sum.sharedHits)

	// Telemetry conservation: the pooled session's aggregate must equal
	// the sum over accepted responses, field by field.
	ps := srv.pool.stats()
	if len(ps) != 1 {
		t.Fatalf("pool has %d sessions, want 1", len(ps))
	}
	st := ps[0].Session
	if st.Batches != sum.ok {
		t.Errorf("session batches = %d, accepted responses = %d", st.Batches, sum.ok)
	}
	if st.OracleCalls != sum.oracleCalls {
		t.Errorf("session oracle calls = %d, response sum = %d", st.OracleCalls, sum.oracleCalls)
	}
	if st.BCCalls != sum.bcCalls {
		t.Errorf("session bc calls = %d, response sum = %d", st.BCCalls, sum.bcCalls)
	}
	if st.CacheHits != sum.cacheHits {
		t.Errorf("session cache hits = %d, response sum = %d", st.CacheHits, sum.cacheHits)
	}
	if st.SharedHits != sum.sharedHits {
		t.Errorf("session shared hits = %d, response sum = %d", st.SharedHits, sum.sharedHits)
	}
	if st.Rounds != sum.rounds {
		t.Errorf("session rounds = %d, response sum = %d", st.Rounds, sum.rounds)
	}
	if st.Interrupted != sum.interrupted {
		t.Errorf("session interrupted = %d, response sum = %d", st.Interrupted, sum.interrupted)
	}

	// Admission conservation per tenant: admitted = completed, and
	// admitted + rejections = requests sent for that tenant.
	adm := srv.Admission().Stats()
	for ti := 0; ti < tenants; ti++ {
		name := fmt.Sprintf("tenant-%d", ti)
		a := adm[name]
		if a.Active != 0 || a.Queued != 0 {
			t.Errorf("%s: %d active, %d queued after drain", name, a.Active, a.Queued)
		}
		if a.Admitted != a.Completed {
			t.Errorf("%s: admitted %d != completed %d", name, a.Admitted, a.Completed)
		}
		sent := int64(workers * perWorker)
		if got := a.Admitted + a.RejectedQueueFull + a.QueueTimeouts; got != sent {
			t.Errorf("%s: admitted+rejected = %d, sent %d (%+v)", name, got, sent, a)
		}
	}
}
