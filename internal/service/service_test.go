package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/topology"
)

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// metricValue scrapes one un-labeled (or exactly-spelled) metric from
// a /metrics exposition.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9eE.+-]+)$`)
	m := re.FindSubmatch(data)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, data)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSolveScenarioCacheHitByteIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"solver":"tap/exact","family":"waxman","size":20,"seed":3,"coverage":0.95}`

	code, first := postJSON(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", code, first)
	}
	if h := metricValue(t, ts, "placementd_cache_hits_total"); h != 0 {
		t.Fatalf("cache hits after first solve = %g, want 0", h)
	}
	if m := metricValue(t, ts, "placementd_cache_misses_total"); m != 1 {
		t.Fatalf("cache misses after first solve = %g, want 1", m)
	}

	code, second := postJSON(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("second solve: status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached response differs from fresh response:\nfirst  %s\nsecond %s", first, second)
	}
	if h := metricValue(t, ts, "placementd_cache_hits_total"); h != 1 {
		t.Fatalf("cache hits after identical solve = %g, want 1", h)
	}
	if r := metricValue(t, ts, "placementd_cache_hit_ratio"); r != 0.5 {
		t.Fatalf("cache hit ratio = %g, want 0.5", r)
	}

	var out SolveResponse
	if err := json.Unmarshal(first, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Taps == nil || !out.Result.Optimal {
		t.Fatalf("solve response carries no optimal tap placement: %s", first)
	}
}

func TestBatchDeduplicatesAndOrders(t *testing.T) {
	ts := newTestServer(t, Config{})
	body := `{"solver":"tap/exact","coverage":0.9,"problems":[
		{"family":"waxman","size":16,"seed":1},
		{"family":"waxman","size":16,"seed":2},
		{"family":"waxman","size":16,"seed":1}]}`
	code, data := postJSON(t, ts.URL+"/v1/batch", body)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", code, data)
	}
	var out BatchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	a, _ := json.Marshal(out.Results[0])
	c, _ := json.Marshal(out.Results[2])
	if !bytes.Equal(a, c) {
		t.Fatal("identical problems in one batch returned different results")
	}
	// Two distinct instances: the duplicate must ride the memo cache.
	if m := metricValue(t, ts, "placementd_cache_misses_total"); m != 2 {
		t.Fatalf("cache misses = %g, want 2 (duplicate problem solved twice?)", m)
	}
	if h := metricValue(t, ts, "placementd_cache_hits_total"); h != 1 {
		t.Fatalf("cache hits = %g, want 1", h)
	}
}

func TestInlineTopologySolve(t *testing.T) {
	// Round an actual POP through the map format so the inline form is
	// exercised end to end.
	pop := topology.Generate(topology.Config{Routers: 6, InterRouterLinks: 9, Endpoints: 5, Seed: 7})
	var buf bytes.Buffer
	if err := topology.Write(&buf, pop); err != nil {
		t.Fatal(err)
	}
	demands := []map[string]any{}
	eps := pop.Endpoints
	for i := 0; i < len(eps)-1; i++ {
		demands = append(demands, map[string]any{"src": int(eps[i]), "dst": int(eps[i+1]), "volume": 5.0 + float64(i)})
	}
	req, _ := json.Marshal(map[string]any{
		"solver":   "tap/greedy-gain",
		"topology": buf.String(),
		"demands":  demands,
	})
	ts := newTestServer(t, Config{})
	code, data := postJSON(t, ts.URL+"/v1/solve", string(req))
	if code != http.StatusOK {
		t.Fatalf("inline solve: status %d: %s", code, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Taps == nil || out.Result.Taps.Fraction < 1-1e-9 {
		t.Fatalf("inline solve returned %s", data)
	}

	// Beacon solvers need no demands: probes come from the topology.
	req, _ = json.Marshal(map[string]any{"solver": "beacon/greedy", "topology": buf.String()})
	code, data = postJSON(t, ts.URL+"/v1/solve", string(req))
	if code != http.StatusOK {
		t.Fatalf("beacon solve: status %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Beacons == nil || out.Result.Devices() == 0 {
		t.Fatalf("beacon solve returned %s", data)
	}
}

func TestBadRequestsAreClientErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	//placevet:ignore maporder -- test table; each case is independent of execution order
	for name, body := range map[string]string{
		"no problem":       `{"solver":"tap/exact"}`,
		"both forms":       `{"family":"waxman","size":10,"topology":"node 0 r backbone\n"}`,
		"unknown family":   `{"family":"nope","size":10}`,
		"unknown solver":   `{"solver":"tap/nope","family":"waxman","size":10}`,
		"unknown field":    `{"familly":"waxman","size":10}`,
		"bad coverage":     `{"family":"waxman","size":10,"coverage":1.5}`,
		"negative timeout": `{"family":"waxman","size":10,"timeout_ms":-5}`,
		"malformed json":   `{`,
	} {
		code, data := postJSON(t, ts.URL+"/v1/solve", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, code, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", name, data)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/batch", `{"solver":"tap/exact","problems":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
}

// A demand whose source is its destination crosses no link, and one
// whose volume is zero or negative carries no traffic. Each is
// rejected when the problem is built, so every solver kind answers 400
// naming it, and none of them panics on it.
func TestSelfDemandIsClientError(t *testing.T) {
	pop := topology.Generate(topology.Config{Routers: 6, InterRouterLinks: 9, Endpoints: 5, Seed: 7})
	var buf bytes.Buffer
	if err := topology.Write(&buf, pop); err != nil {
		t.Fatal(err)
	}
	eps := pop.Endpoints
	ts := newTestServer(t, Config{})
	// A self-demand, and demands whose volume is not positive: the
	// solvers would panic or fail on them, so the build refuses them.
	for _, bad := range []map[string]any{
		{"src": int(eps[2]), "dst": int(eps[2]), "volume": 3.0},
		{"src": int(eps[2]), "dst": int(eps[3]), "volume": 0.0},
		{"src": int(eps[2]), "dst": int(eps[3]), "volume": -2.0},
	} {
		demands := []map[string]any{
			{"src": int(eps[0]), "dst": int(eps[1]), "volume": 5.0},
			bad,
		}
		for _, solver := range []string{"sample/ppme", "tap/greedy-gain", "tap/exact"} {
			req, _ := json.Marshal(map[string]any{
				"solver":   solver,
				"topology": buf.String(),
				"demands":  demands,
				"coverage": 1,
			})
			code, data := postJSON(t, ts.URL+"/v1/solve", string(req))
			if code != http.StatusBadRequest || !strings.Contains(string(data), "demand 1") {
				t.Errorf("%s, demand %v: status %d (%s), want 400 naming demand 1", solver, bad, code, data)
			}
		}
	}
	if v := metricValue(t, ts, "placementd_panics_total"); v != 0 {
		t.Fatalf("panics_total = %g, want 0", v)
	}
}

func TestFamiliesAndHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/families")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out FamiliesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	families := map[string]bool{}
	for _, f := range out.Families {
		families[f.Name] = f.MinSize > 0
	}
	for _, want := range []string{"waxman", "barabasi", "metro", "fattree", "churn", "pop"} {
		if !families[want] {
			t.Errorf("families response missing %q (got %v)", want, out.Families)
		}
	}
	solvers := strings.Join(out.Solvers, " ")
	if !strings.Contains(solvers, "tap/exact") || !strings.Contains(solvers, "beacon/ilp") {
		t.Errorf("solvers listing incomplete: %v", out.Solvers)
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", hr.StatusCode, body)
	}
}

// slowGate lets the admission tests hold solves open deterministically:
// the registered solver blocks until the test releases it.
var slowGate = struct {
	sync.Mutex
	ch map[string]chan struct{}
}{ch: make(map[string]chan struct{})}

func init() {
	err := repro.RegisterSolver(repro.SolverFunc{SolverName: "test/slow", Fn: func(ctx context.Context, p repro.Problem, o repro.Options) (*repro.Result, error) {
		slowGate.Lock()
		ch := slowGate.ch["gate"]
		slowGate.Unlock()
		if ch != nil {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
			}
		}
		return repro.Solve(ctx, repro.SolverTapGreedyGain, p, repro.WithCoverage(o.Coverage))
	}})
	if err != nil {
		panic(err)
	}
}

func TestAdmissionControlShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	slowGate.Lock()
	slowGate.ch["gate"] = gate
	slowGate.Unlock()
	defer func() {
		slowGate.Lock()
		slowGate.ch["gate"] = nil
		slowGate.Unlock()
	}()

	ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	body := `{"solver":"test/slow","family":"waxman","size":12,"seed":9}`

	type reply struct {
		code int
		data []byte
	}
	results := make(chan reply, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, data := postJSON(t, ts.URL+"/v1/solve", body)
			results <- reply{code, data}
		}()
		// Stagger so the roles are deterministic: first in flight,
		// second queued, third shed.
		time.Sleep(150 * time.Millisecond)
	}
	// The third request must already have been answered 429 while the
	// gate is still closed.
	r := <-results
	if r.code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d (%s), want 429", r.code, r.data)
	}
	if shed := metricValue(t, ts, "placementd_requests_shed_total"); shed != 1 {
		t.Fatalf("shed counter = %g, want 1", shed)
	}
	if q := metricValue(t, ts, "placementd_queue_depth"); q != 1 {
		t.Fatalf("queue depth = %g, want 1", q)
	}
	close(gate)
	wg.Wait()
	close(results)
	for r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("admitted request: status %d (%s), want 200", r.code, r.data)
		}
	}
}

func TestPersistentCacheSurvivesRestartAtLeast10x(t *testing.T) {
	if testing.Short() {
		t.Skip("cold solve takes ~150ms; skipped in -short")
	}
	dir := t.TempDir()
	// tap/ilp on this instance takes ~140ms cold; a warm hit is a cache
	// lookup plus JSON, well over 10x faster even on a noisy runner.
	body := `{"solver":"tap/ilp","family":"waxman","size":30,"seed":1,"coverage":0.95}`

	ts1 := newTestServer(t, Config{CacheDir: dir})
	coldStart := time.Now()
	code, first := postJSON(t, ts1.URL+"/v1/solve", body)
	cold := time.Since(coldStart)
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, first)
	}
	ts1.Close() // the kill: nothing of the first process survives but the dir

	ts2 := newTestServer(t, Config{CacheDir: dir})
	warmStart := time.Now()
	code, second := postJSON(t, ts2.URL+"/v1/solve", body)
	warm := time.Since(warmStart)
	if code != http.StatusOK {
		t.Fatalf("warm solve: status %d: %s", code, second)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("restarted server returned different bytes:\ncold %s\nwarm %s", first, second)
	}
	if h := metricValue(t, ts2, "placementd_cache_hits_total"); h != 1 {
		t.Fatalf("warm server cache hits = %g, want 1 (disk store not loaded?)", h)
	}
	if m := metricValue(t, ts2, "placementd_cache_misses_total"); m != 0 {
		t.Fatalf("warm server cache misses = %g, want 0", m)
	}
	if warm*10 > cold {
		t.Fatalf("warm solve %v not >=10x faster than cold %v", warm, cold)
	}
	t.Logf("cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
}

func TestGracefulDrainFinishesInFlightSolves(t *testing.T) {
	gate := make(chan struct{})
	slowGate.Lock()
	slowGate.ch["gate"] = gate
	slowGate.Unlock()
	defer func() {
		slowGate.Lock()
		slowGate.ch["gate"] = nil
		slowGate.Unlock()
	}()

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	// Not deferred-closed: Shutdown below is the close.

	type reply struct {
		code int
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"solver":"test/slow","family":"waxman","size":12,"seed":4}`))
		if err != nil {
			done <- reply{0, err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- reply{resp.StatusCode, nil}
	}()

	// Wait until the request holds its in-flight slot, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.adm.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.adm.InFlight() == 0 {
		t.Fatal("solve never reached the admission gate")
	}
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Config.Shutdown(ctx)
		close(shutdownDone)
	}()
	time.Sleep(50 * time.Millisecond) // let Shutdown close the listener
	close(gate)

	r := <-done
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight solve during drain: code %d err %v, want 200", r.code, r.err)
	}
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight solve finished")
	}
}

func TestTimeoutRequestStillAnswers(t *testing.T) {
	ts := newTestServer(t, Config{MaxTimeout: 50 * time.Millisecond})
	// A time-bounded request on a hard instance must degrade to an
	// incumbent, not hang or error; and it must not poison the cache.
	body := `{"solver":"tap/ilp","family":"waxman","size":30,"seed":1,"coverage":0.95,"timeout_ms":60000}`
	code, data := postJSON(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("bounded solve: status %d: %s", code, data)
	}
	var out SolveResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Result.Taps == nil {
		t.Fatalf("bounded solve returned no placement: %s", data)
	}
	// Time-bounded solves bypass the cache entirely.
	if h, m := metricValue(t, ts, "placementd_cache_hits_total"), metricValue(t, ts, "placementd_cache_misses_total"); h != 0 || m != 0 {
		t.Fatalf("bounded solve touched the cache: %g/%g hit/miss", h, m)
	}
}

func TestMetricsHistogramCounts(t *testing.T) {
	ts := newTestServer(t, Config{})
	for seed := 1; seed <= 3; seed++ {
		body := fmt.Sprintf(`{"solver":"tap/exact","family":"waxman","size":14,"seed":%d}`, seed)
		if code, data := postJSON(t, ts.URL+"/v1/solve", body); code != http.StatusOK {
			t.Fatalf("solve %d: status %d: %s", seed, code, data)
		}
	}
	if n := metricValue(t, ts, "placementd_solve_duration_seconds_count"); n != 3 {
		t.Fatalf("histogram count = %g, want 3", n)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(data), `placementd_solve_duration_seconds_bucket{le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket must equal count:\n%s", data)
	}
	if !strings.Contains(string(data), `placementd_requests_total{endpoint="/v1/solve",code="200"} 3`) {
		t.Fatalf("requests_total missing solve successes:\n%s", data)
	}
	if v := metricValue(t, ts, "placementd_solver_nodes_total"); v <= 0 {
		t.Fatalf("solver nodes counter = %g, want > 0 after exact solves", v)
	}
}
