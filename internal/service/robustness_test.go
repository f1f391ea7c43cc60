package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/fault"
)

// brokenSolver is a registrable tap solver that fails until healed,
// counting its calls — the probe the breaker tests watch.
type brokenSolver struct {
	name   string
	broken atomic.Bool
	calls  atomic.Int64
}

func (b *brokenSolver) Name() string { return b.name }

func (b *brokenSolver) Solve(ctx context.Context, problem repro.Problem, opts ...repro.Option) (*repro.Result, error) {
	b.calls.Add(1)
	if b.broken.Load() {
		return nil, errors.New("injected solver failure")
	}
	return repro.Solve(ctx, repro.SolverTapGreedyGain, problem, opts...)
}

var brokenSeq atomic.Int64

func newBroken(t *testing.T) *brokenSolver {
	t.Helper()
	b := &brokenSolver{name: fmt.Sprintf("tap/broken-%d", brokenSeq.Add(1))}
	b.broken.Store(true)
	if err := repro.RegisterSolver(b); err != nil {
		t.Fatal(err)
	}
	return b
}

// newServerPair builds the Server (for direct method access) and an
// httptest front end over its Handler.
func newServerPair(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

const solveBody = `{"solver":"%s","family":"waxman","size":16,"seed":1,"coverage":0.9}`

func TestProbesFlipTo503WhileDraining(t *testing.T) {
	s, ts := newServerPair(t, Config{})
	for _, probe := range []string{"/healthz", "/readyz"} {
		if code, body := getStatus(t, ts.URL+probe); code != http.StatusOK {
			t.Fatalf("%s before drain = %d: %s", probe, code, body)
		}
	}
	s.BeginDrain()
	for _, probe := range []string{"/healthz", "/readyz"} {
		code, body := getStatus(t, ts.URL+probe)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("%s while draining = %d, want 503", probe, code)
		}
		if !strings.Contains(body, "draining") {
			t.Fatalf("%s body = %q, want draining", probe, body)
		}
	}
	// Draining refuses probes, not work: an in-flight-style solve must
	// still complete (Shutdown, not the service, ends request serving).
	code, body := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, "tap/greedy-gain"))
	if code != http.StatusOK {
		t.Fatalf("solve while draining = %d: %s", code, body)
	}
}

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func TestPanicRecoveredInto500(t *testing.T) {
	// A panic in the handler itself, and one on an engine worker, which
	// reaches the middleware as an *engine.TaskPanic carrying the
	// worker's stack. Neither body may show a stack.
	for _, point := range []string{fault.PointHandler, fault.PointEngineTask} {
		t.Run(point, func(t *testing.T) {
			_, ts := newServerPair(t, Config{})
			reg := fault.NewRegistry(1)
			reg.Set(point, fault.Schedule{Every: 1, Limit: 1, Panic: true})
			fault.Activate(reg)
			defer fault.Deactivate()

			code, body := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, "tap/greedy-gain"))
			if code != http.StatusInternalServerError {
				t.Fatalf("panicking handler = %d, want 500: %s", code, body)
			}
			if !strings.Contains(string(body), "internal panic") || !strings.Contains(string(body), "injected panic") {
				t.Fatalf("500 body = %s, want the uniform panic error with the panic's value", body)
			}
			if strings.Contains(string(body), "goroutine") || strings.Contains(string(body), ".go:") {
				t.Fatalf("500 body leaks a stack: %s", body)
			}
			if v := metricValue(t, ts, "placementd_panics_total"); v != 1 {
				t.Fatalf("panics_total = %g, want 1", v)
			}
			// The process (and server) survived: the next request works.
			if code, body := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, "tap/greedy-gain")); code != http.StatusOK {
				t.Fatalf("request after recovered panic = %d: %s", code, body)
			}
		})
	}
}

func TestHandlerFaultErrorMapsTo500(t *testing.T) {
	_, ts := newServerPair(t, Config{})
	reg := fault.NewRegistry(1)
	reg.Set(fault.PointHandler, fault.Schedule{Every: 1, Limit: 1, Err: errors.New("synthetic handler failure")})
	fault.Activate(reg)
	defer fault.Deactivate()
	code, body := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, "tap/greedy-gain"))
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "handler fault") {
		t.Fatalf("injected handler error = %d: %s", code, body)
	}
}

func TestDegradedResponseStampedAndCounted(t *testing.T) {
	b := newBroken(t)
	_, ts := newServerPair(t, Config{})

	code, body := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, b.name))
	if code != http.StatusOK {
		t.Fatalf("degraded solve = %d: %s", code, body)
	}
	s := string(body)
	for _, want := range []string{`"Degraded":true`, `"FallbackSolver":"tap/greedy-gain"`, fmt.Sprintf(`"Solver":%q`, b.name)} {
		if !strings.Contains(s, want) {
			t.Fatalf("degraded response missing %s:\n%s", want, s)
		}
	}
	if v := metricValue(t, ts, "placementd_degraded_responses_total"); v != 1 {
		t.Fatalf("degraded_responses_total = %g, want 1", v)
	}
	if v := metricValue(t, ts, "placementd_degraded_solves_total"); v != 1 {
		t.Fatalf("degraded_solves_total = %g, want 1", v)
	}
}

func TestBreakerTripsProbesAndRecloses(t *testing.T) {
	b := newBroken(t)
	_, ts := newServerPair(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	body := fmt.Sprintf(solveBody, b.name)

	// Two ladder-served failures trip the breaker...
	for i := 0; i < 2; i++ {
		if code, resp := postJSON(t, ts.URL+"/v1/solve", body); code != http.StatusOK {
			t.Fatalf("degraded solve %d = %d: %s", i, code, resp)
		}
	}
	if got := b.calls.Load(); got != 2 {
		t.Fatalf("primary calls after trip = %d, want 2", got)
	}
	if v := metricValue(t, ts, "placementd_breaker_trips_total"); v != 1 {
		t.Fatalf("breaker_trips_total = %g, want 1", v)
	}
	if v := metricValue(t, ts, "placementd_breaker_open"); v != 1 {
		t.Fatalf("breaker_open = %g, want 1", v)
	}

	// ...so the next request skips the primary entirely and is still a
	// well-formed degraded 200.
	code, resp := postJSON(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK || !strings.Contains(string(resp), `"Degraded":true`) {
		t.Fatalf("breaker-open solve = %d: %s", code, resp)
	}
	if got := b.calls.Load(); got != 2 {
		t.Fatalf("open breaker let the primary be called (%d calls, want 2)", got)
	}

	// After cooldown, one half-open probe reaches the healed primary
	// and the breaker closes: undegraded answers resume.
	b.broken.Store(false)
	time.Sleep(60 * time.Millisecond)
	code, resp = postJSON(t, ts.URL+"/v1/solve", body)
	if code != http.StatusOK {
		t.Fatalf("probe solve = %d: %s", code, resp)
	}
	if strings.Contains(string(resp), `"Degraded":true`) {
		t.Fatalf("healed probe still degraded: %s", resp)
	}
	if got := b.calls.Load(); got != 3 {
		t.Fatalf("primary calls after probe = %d, want 3", got)
	}
	if v := metricValue(t, ts, "placementd_breaker_open"); v != 0 {
		t.Fatalf("breaker_open after heal = %g, want 0", v)
	}
}

func TestClientErrorsDoNotTripBreaker(t *testing.T) {
	_, ts := newServerPair(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	for i := 0; i < 3; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(solveBody, "tap/no-such-solver"))
		if code != http.StatusBadRequest {
			t.Fatalf("unknown solver = %d, want 400", code)
		}
	}
	if v := metricValue(t, ts, "placementd_breaker_trips_total"); v != 0 {
		t.Fatalf("breaker_trips_total after 400s = %g, want 0", v)
	}
}
