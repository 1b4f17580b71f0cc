//go:build slowchaos

package server

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// slowChaosSeed fixes the long schedule so every CI run replays the same
// faults at the same places. Change it deliberately, never randomly.
const slowChaosSeed = 42

// TestSlowChaosLongSchedule drives many sequential optimizations through
// one server under a dense fixed-seed fault schedule that mixes injected
// oracle panics, pool-lookup delays and round-boundary delays. It is the
// endurance companion of the -short chaos suite: the process must survive
// every fault, each request must resolve to a clean 200 or a coded 500,
// and the telemetry conservation invariant must still balance across all
// the session churn the quarantines cause.
func TestSlowChaosLongSchedule(t *testing.T) {
	srv := New(Config{Breaker: BreakerConfig{Disabled: true}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := specBody(t, nil)

	// Reference result before any schedule is installed.
	resp, data := postOptimize(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference = %d: %s", resp.StatusCode, data)
	}
	ref := decodeResponse(t, data)

	// Derive the panic positions from the fixed seed: ~1 in 3 requests
	// fault somewhere inside their run, whose every bestCost call is one
	// OracleEval hit. Delay rules fire on every hit and keep the slow paths
	// exercised without changing results.
	rng := rand.New(rand.NewSource(slowChaosSeed))
	perRequest := ref.Telemetry.BCCalls
	if perRequest <= 0 {
		t.Fatalf("reference made no bestCost calls")
	}
	const requests = 36
	rules := []faultinject.Rule{
		{Point: faultinject.PoolGet, Delay: 200 * time.Microsecond},
		{Point: faultinject.Round, Delay: 100 * time.Microsecond},
	}
	wantFaults := 0
	for i := 0; i < requests; i++ {
		if rng.Intn(3) != 0 {
			continue
		}
		// A panic at a random eval of request i's run. Faulted requests
		// abort their run, so later offsets are computed from the running
		// hit count the schedule will actually reach, which we cannot know
		// exactly; rule Ns target the fault-free cumulative position and any
		// rule landing inside an aborted scan simply fires on a later
		// request — survival and conservation hold either way.
		n := int64(i)*int64(perRequest) + 1 + rng.Int63n(int64(perRequest))
		rules = append(rules, faultinject.Rule{Point: faultinject.OracleEval, N: n, Panic: true})
		wantFaults++
	}
	restore := withSchedule(t, faultinject.NewSchedule(slowChaosSeed, rules...))

	var ok, faulted int
	var respCalls, respRounds, respBatches int
	for i := 0; i < requests; i++ {
		resp, data := postOptimize(t, ts.URL, body, nil)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
			r := decodeResponse(t, data)
			respCalls += r.Telemetry.OracleCalls
			respRounds += r.Telemetry.Rounds
			respBatches++
			if r.CostMS != ref.CostMS || len(r.Materialized) != len(ref.Materialized) {
				t.Fatalf("request %d diverged under faults: cost %v vs %v", i, r.CostMS, ref.CostMS)
			}
		case http.StatusInternalServerError:
			faulted++
			var eb errorBody
			if err := json.Unmarshal(data, &eb); err != nil || eb.Code != codeInternalPanic || eb.Incident == "" {
				t.Fatalf("request %d: 500 body = %s, want code %s with incident", i, data, codeInternalPanic)
			}
		default:
			t.Fatalf("request %d = %d: %s", i, resp.StatusCode, data)
		}
	}
	restore()

	if ok+faulted != requests {
		t.Fatalf("accounted %d of %d requests", ok+faulted, requests)
	}
	if faulted == 0 || ok == 0 {
		t.Fatalf("schedule produced ok=%d faulted=%d; want a mix (planned %d faults)", ok, faulted, wantFaults)
	}
	if got := srv.PanicsRecovered(); got != int64(faulted) {
		t.Errorf("panics recovered = %d, want %d", got, faulted)
	}

	// Conservation: live pool + retired aggregate == what the 200s
	// reported, with every faulted run counted exactly once as a fault.
	waitFor(t, func() bool { return sumStats(t, srv).Faults == faulted })
	total := sumStats(t, srv)
	// The reference request ran before the loop.
	if total.Batches != respBatches+1 || total.OracleCalls != respCalls+ref.Telemetry.OracleCalls {
		t.Errorf("conservation: batches %d want %d, calls %d want %d",
			total.Batches, respBatches+1, total.OracleCalls, respCalls+ref.Telemetry.OracleCalls)
	}
	if total.Rounds != respRounds+ref.Telemetry.Rounds {
		t.Errorf("conservation: rounds %d want %d", total.Rounds, respRounds+ref.Telemetry.Rounds)
	}

	// With the schedule gone the replay is bit-identical to the reference.
	resp, data = postOptimize(t, ts.URL, body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-chaos replay = %d: %s", resp.StatusCode, data)
	}
	got := decodeResponse(t, data)
	if got.CostMS != ref.CostMS || got.BenefitMS != ref.BenefitMS ||
		got.Telemetry.OracleCalls != ref.Telemetry.OracleCalls {
		t.Errorf("post-chaos replay diverged: %+v vs %+v", got.Telemetry, ref.Telemetry)
	}
	if faultinject.Enabled() {
		t.Fatal("schedule leaked past restore")
	}
}
