package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/service"
)

func newDaemon(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	s, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestLoad64ConcurrentNoDrops is the acceptance run: 64 workers, 128
// requests, a queue deep enough that admission control never sheds —
// every request must come back 200, none dropped.
func TestLoad64ConcurrentNoDrops(t *testing.T) {
	ts := newDaemon(t, service.Config{MaxInFlight: 8, MaxQueue: 256})

	rep, err := drive(ts.URL, loadSpec{
		N: 128, C: 64,
		Solver: "tap/greedy-gain", Family: "waxman", Size: 16,
		Seeds: 4, Coverage: 0.9,
	})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", rep.Dropped)
	}
	if rep.ByStatus[200] != 128 {
		t.Fatalf("by_status = %v, want 128 x 200", rep.ByStatus)
	}
	if rep.LatencyMS["p99"] < rep.LatencyMS["p50"] || rep.LatencyMS["max"] < rep.LatencyMS["p99"] {
		t.Fatalf("latency percentiles not monotone: %v", rep.LatencyMS)
	}
	if rep.Throughput <= 0 {
		t.Fatalf("throughput = %g", rep.Throughput)
	}
}

// shedGate opens once its daemon has answered some request 429.
type shedGate struct {
	once   sync.Once
	opened chan struct{}
}

func (g *shedGate) open() { g.once.Do(func() { close(g.opened) }) }

// shedWatch is a ResponseWriter that opens its gate when the daemon
// writes a 429.
type shedWatch struct {
	http.ResponseWriter
	gate *shedGate
}

func (w shedWatch) WriteHeader(code int) {
	if code == http.StatusTooManyRequests {
		w.gate.open()
	}
	w.ResponseWriter.WriteHeader(code)
}

// gatedSolver answers as tap/greedy-gain once the current shedding
// test's gate is open. Until then the first request it serves holds
// the daemon's one in-flight slot, so the one-deep queue overflows for
// certain, not only when the workers happen to outpace the cached
// answers draining it.
type gatedSolver struct{}

const gatedSolverName = "tap/placeload-gated"

var (
	registerGated sync.Once
	currentGate   atomic.Pointer[shedGate]
)

func (gatedSolver) Name() string { return gatedSolverName }

func (gatedSolver) Solve(ctx context.Context, problem repro.Problem, opts ...repro.Option) (*repro.Result, error) {
	select {
	case <-currentGate.Load().opened:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return repro.Solve(ctx, repro.SolverTapGreedyGain, problem, opts...)
}

// newShedDaemon serves a daemon with one in-flight slot and a one-deep
// queue, and opens gatedSolver's gate at the first request it sheds.
func newShedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	registerGated.Do(func() {
		if err := repro.RegisterSolver(gatedSolver{}); err != nil {
			t.Fatal(err)
		}
	})
	gate := &shedGate{opened: make(chan struct{})}
	currentGate.Store(gate)
	s, err := service.New(service.Config{MaxInFlight: 1, MaxQueue: 1})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(shedWatch{w, gate}, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestLoadTinyQueueShedsDeliberately squeezes the same load through a
// one-deep queue: some requests must shed with 429, but every request
// still gets an HTTP answer — ok + shed == n, dropped == 0.
func TestLoadTinyQueueShedsDeliberately(t *testing.T) {
	ts := newShedDaemon(t)

	rep, err := drive(ts.URL, loadSpec{
		N: 96, C: 64,
		Solver: gatedSolverName, Family: "waxman", Size: 16,
		Seeds: 2, Coverage: 0.9,
	})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0 (shed 429s are responses, not drops)", rep.Dropped)
	}
	ok, shed := rep.ByStatus[200], rep.ByStatus[429]
	if ok+shed != 96 {
		t.Fatalf("200s (%d) + 429s (%d) = %d, want 96; full mix %v", ok, shed, ok+shed, rep.ByStatus)
	}
	if ok == 0 {
		t.Fatalf("no request succeeded: %v", rep.ByStatus)
	}
	if shed == 0 {
		t.Fatalf("queue of 1 under 64 workers shed nothing: %v", rep.ByStatus)
	}
}

// TestLoadRetriesDrainSheds runs the same over-tight queue with the
// retry layer on: shed requests come back, get retried after the
// daemon's Retry-After, and the report shows the retries it cost.
func TestLoadRetriesDrainSheds(t *testing.T) {
	ts := newShedDaemon(t)

	rep, err := drive(ts.URL, loadSpec{
		N: 48, C: 32,
		Solver: gatedSolverName, Family: "waxman", Size: 16,
		Seeds: 2, Coverage: 0.9, Retries: 6,
	})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped = %d, want 0", rep.Dropped)
	}
	if rep.Retried == 0 {
		t.Fatalf("one-deep queue under 32 workers retried nothing: %+v", rep)
	}
	if ok, shed := rep.ByStatus[200], rep.ByStatus[429]; ok+shed != 48 || ok == 0 {
		t.Fatalf("200s (%d) + final 429s (%d) != 48; mix %v", ok, shed, rep.ByStatus)
	}
}

// deadSolver always fails, so every request it serves is answered by
// the service's fallback ladder — a degraded response placeload must
// count.
type deadSolver struct{ name string }

func (d *deadSolver) Name() string { return d.name }

func (d *deadSolver) Solve(ctx context.Context, problem repro.Problem, opts ...repro.Option) (*repro.Result, error) {
	return nil, errors.New("deliberately dead")
}

func TestLoadCountsDegradedResponses(t *testing.T) {
	if err := repro.RegisterSolver(&deadSolver{name: "tap/placeload-dead"}); err != nil {
		t.Fatal(err)
	}
	ts := newDaemon(t, service.Config{MaxInFlight: 4, MaxQueue: 64})

	rep, err := drive(ts.URL, loadSpec{
		N: 8, C: 4,
		Solver: "tap/placeload-dead", Family: "waxman", Size: 16,
		Seeds: 2, Coverage: 0.9,
	})
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if rep.ByStatus[200] != 8 {
		t.Fatalf("by_status = %v, want 8 x 200 via the fallback ladder", rep.ByStatus)
	}
	if rep.Degraded != 8 {
		t.Fatalf("degraded = %d, want 8", rep.Degraded)
	}
}

func TestRunTextAndJSONOutput(t *testing.T) {
	ts := newDaemon(t, service.Config{MaxInFlight: 4, MaxQueue: 64})

	var text bytes.Buffer
	code, err := run([]string{"-addr", ts.URL, "-n", "8", "-c", "4", "-size", "12"}, &text)
	if err != nil || code != 0 {
		t.Fatalf("run text = (%d, %v), output:\n%s", code, err, text.String())
	}
	if !strings.Contains(text.String(), "HTTP 200") || !strings.Contains(text.String(), "latency ms") {
		t.Fatalf("text report missing sections:\n%s", text.String())
	}

	var js bytes.Buffer
	code, err = run([]string{"-addr", ts.URL, "-n", "8", "-c", "4", "-size", "12", "-json"}, &js)
	if err != nil || code != 0 {
		t.Fatalf("run json = (%d, %v)", code, err)
	}
	var rep report
	if err := json.Unmarshal(js.Bytes(), &rep); err != nil {
		t.Fatalf("json report: %v\n%s", err, js.String())
	}
	if rep.Requests != 8 || rep.Dropped != 0 {
		t.Fatalf("json report = %+v", rep)
	}
}

func TestRunDroppedRequestsExitNonzero(t *testing.T) {
	// Nothing listens here: every request is a transport error.
	code, err := run([]string{"-addr", "http://127.0.0.1:1", "-n", "4", "-c", "2"}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 when requests drop", code)
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"-version"}, &out)
	if err != nil || code != 0 {
		t.Fatalf("run -version = (%d, %v)", code, err)
	}
	if !strings.HasPrefix(out.String(), "placeload ") {
		t.Fatalf("version output = %q", out.String())
	}
}

func TestBadFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"}, {"-c", "-1"}, {"-seeds", "0"},
	} {
		if code, err := run(args, io.Discard); err == nil || code != 2 {
			t.Fatalf("run(%v) = (%d, %v), want usage error", args, code, err)
		}
	}
}
