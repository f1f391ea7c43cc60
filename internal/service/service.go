// Package service is placement-as-a-service: the long-lived HTTP
// subsystem behind cmd/placementd. Clients POST a problem — a
// scenario-family triple or an inline topology plus traffic matrix —
// to /v1/solve (one problem) or /v1/batch (many problems, solved once
// per distinct instance on the batch engine), and get placements back
// as JSON. The server fronts one shared repro.Runner, so every
// request benefits from the engine's single-flight memo cache; built
// with a cache directory, the content-addressed result store persists
// across restarts and the first request after a restart is already
// warm.
//
// Admission control bounds the damage of overload: MaxInFlight solves
// run concurrently, MaxQueue requests wait, everything beyond is shed
// with 429 and a Retry-After. Per-request deadlines (timeout_ms) map
// to repro.WithTimeout, capped at MaxTimeout. /metrics exports
// Prometheus text (latency histogram, solver effort counters, queue
// depth, cache hit rate), /healthz answers liveness probes, /readyz
// answers routability (503 once draining), and /v1/families lists the
// scenario registry.
//
// Failure is a first-class input (DESIGN.md §9): a panic anywhere
// below the mux is recovered into a 500 and an incident counter, a
// failing primary solver degrades through a per-prefix fallback ladder
// instead of erroring, and a per-solver circuit breaker skips a
// persistently failing primary entirely until a half-open probe
// succeeds. Degraded responses are stamped in the JSON and counted in
// /metrics — the service never silently substitutes a cheaper answer.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/scenario"
)

// Config parameterizes New. The zero value is a usable in-memory
// server with defaults scaled to the host.
type Config struct {
	// CacheDir, when non-empty, persists the result store there
	// (created if missing) so restarts are warm.
	CacheDir string
	// Workers bounds the runner's concurrent solves; <= 0 means
	// GOMAXPROCS.
	Workers int
	// MaxInFlight bounds concurrently admitted requests; <= 0 means
	// 2×GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot; <= 0
	// means 128. Requests beyond MaxInFlight+MaxQueue are shed with
	// 429.
	MaxQueue int
	// MaxTimeout caps client-requested solve deadlines; <= 0 means
	// 1 minute.
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies; <= 0 means 16 MiB.
	MaxBodyBytes int64
	// BreakerThreshold is the number of consecutive primary-solver
	// failures that trips that solver's circuit breaker; <= 0 means 5.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker refuses the primary
	// before admitting a half-open probe; <= 0 means 10s.
	BreakerCooldown time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// Server is the placement service. Build it with New, mount
// Handler() on an http.Server, and let http.Server.Shutdown drain it:
// in-flight solves finish (they are not canceled by listener close),
// queued requests complete, and the persistent store is already
// written through, so SIGTERM loses nothing.
type Server struct {
	cfg      Config
	runner   *repro.Runner
	adm      *admission
	metrics  *metrics
	breakers *breakerSet
	mux      *http.ServeMux
	// draining flips once at SIGTERM (BeginDrain): /healthz and
	// /readyz turn 503 so load balancers stop routing while in-flight
	// work finishes.
	draining atomic.Bool
}

// New builds the service. A configured cache directory is created
// eagerly so a misconfigured path fails at startup, not at the first
// solve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ropts := []repro.RunnerOption{repro.WithWorkers(cfg.Workers)}
	if cfg.CacheDir != "" {
		if err := os.MkdirAll(cfg.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: cache dir: %w", err)
		}
		ropts = append(ropts, repro.WithCacheDir(cfg.CacheDir))
	}
	s := &Server{
		cfg:      cfg,
		runner:   repro.NewRunner(ropts...),
		adm:      newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		metrics:  newMetrics(),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/families", s.handleFamilies)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// panic recovery, so no handler bug (or injected chaos panic) can kill
// the daemon process or leave a request without a response.
func (s *Server) Handler() http.Handler { return s.recover(s.mux) }

// BeginDrain marks the server as draining: liveness stays truthful
// (the process is up) but /healthz and /readyz answer 503 so load
// balancers stop routing new work before http.Server.Shutdown finishes
// the in-flight requests. Draining is one-way.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// recover is the outermost middleware: a panicking handler becomes a
// 500 with the uniform JSON error body (when no bytes were written
// yet) and an incident counter tick — never a crashed process, and
// never a half-written 200. The body names only the panic's value;
// the stacks, which show server goroutines and source paths, go to
// standard error. http.ErrAbortHandler keeps its stdlib meaning and is
// re-raised.
func (s *Server) recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler { //nolint:errorlint // sentinel, compared by identity upstream too
				panic(p)
			}
			s.metrics.panics.Add(1)
			// A task panic's text carries its worker's stack: log it
			// whole, answer with the original value alone.
			value := p
			if tp, ok := p.(*engine.TaskPanic); ok {
				value = tp.Value
			}
			fmt.Fprintf(os.Stderr, "placementd: %s %s: internal panic: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !sw.wrote {
				s.writeError(sw, r.URL.Path, http.StatusInternalServerError,
					fmt.Sprintf("internal panic: %v", value))
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter tracks whether a response has started, so the recovery
// middleware knows if a 500 can still be written whole.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Runner exposes the shared batch runner (the load driver's tests and
// cmd/placementd's shutdown logging read its cache counters).
func (s *Server) Runner() *repro.Runner { return s.runner }

// decode parses one JSON body strictly: unknown fields are rejected so
// a typoed option fails loudly instead of silently solving with
// defaults.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, endpoint string, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/solve"
	var req SolveRequest
	if !s.decode(w, r, endpoint, &req) {
		return
	}
	solver := req.Solver
	if solver == "" {
		solver = repro.SolverTapExact
	}
	problem, err := req.ProblemSpec.build(solver)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := req.OptionsSpec.options(s.cfg.MaxTimeout)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	results, ok := s.solve(w, r, endpoint, solver, []repro.Problem{problem}, opts)
	if !ok {
		return
	}
	s.writeJSON(w, endpoint, http.StatusOK, SolveResponse{Result: results[0]})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v1/batch"
	var req BatchRequest
	if !s.decode(w, r, endpoint, &req) {
		return
	}
	if len(req.Problems) == 0 {
		s.writeError(w, endpoint, http.StatusBadRequest, "batch has no problems")
		return
	}
	solver := req.Solver
	if solver == "" {
		solver = repro.SolverTapExact
	}
	problems := make([]repro.Problem, len(req.Problems))
	for i, spec := range req.Problems {
		p, err := spec.build(solver)
		if err != nil {
			s.writeError(w, endpoint, http.StatusBadRequest, fmt.Sprintf("problem %d: %v", i, err))
			return
		}
		problems[i] = p
	}
	opts, err := req.OptionsSpec.options(s.cfg.MaxTimeout)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err.Error())
		return
	}
	results, ok := s.solve(w, r, endpoint, solver, problems, opts)
	if !ok {
		return
	}
	s.writeJSON(w, endpoint, http.StatusOK, BatchResponse{Results: results})
}

// fallbackLadder returns the degradation ladder for a requested
// solver: the cheaper registered solvers of the same problem family,
// in preference order. Solvers with no cheaper feasible stand-in (the
// ladder bases themselves, the maximizing tap/max-coverage whose
// objective the minimizers cannot substitute, and sample/* where a
// different solver answers a different question) get none.
func fallbackLadder(solver string) []string {
	switch {
	case solver == repro.SolverTapMaxCover,
		solver == repro.SolverTapGreedyGain,
		solver == repro.SolverBeaconGreedy:
		return nil
	case strings.HasPrefix(solver, "tap/"):
		return []string{repro.SolverTapGreedyGain}
	case strings.HasPrefix(solver, "beacon/"):
		return []string{repro.SolverBeaconGreedy}
	}
	return nil
}

// solve runs one admitted batch on the shared runner. It owns the
// admission gate, the degradation ladder, the per-solver circuit
// breaker, and the error-to-status mapping; on a false return the
// response has already been written.
func (s *Server) solve(w http.ResponseWriter, r *http.Request, endpoint, solver string, problems []repro.Problem, opts []repro.Option) ([]*repro.Result, bool) {
	release, err := s.adm.acquire(r.Context())
	if err != nil {
		if errors.Is(err, errShed) {
			w.Header().Set("Retry-After", "1")
			s.writeError(w, endpoint, http.StatusTooManyRequests,
				fmt.Sprintf("at capacity (%d in flight, %d queued); retry", s.cfg.MaxInFlight, s.cfg.MaxQueue))
		} else {
			// The client hung up while queued; nobody reads the reply.
			s.writeError(w, endpoint, statusClientClosedRequest, "client canceled while queued")
		}
		return nil, false
	}
	defer release()
	// Inject point: a slow, failing, or crashing handler. A panic here
	// is recovered by the middleware into a 500; an error maps to 500
	// like any handler failure.
	if err := fault.Hit(fault.PointHandler).Apply(); err != nil {
		s.writeError(w, endpoint, http.StatusInternalServerError, fmt.Sprintf("handler fault: %v", err))
		return nil, false
	}

	ladder := fallbackLadder(solver)
	br := s.breakers.get(solver)
	if len(ladder) > 0 && !br.allow(time.Now()) {
		// Breaker open: skip the broken primary entirely and solve on
		// the ladder, stamping provenance as if the primary had failed
		// per-request (which, threshold times in a row, it just did).
		start := time.Now()
		results, err := s.runner.SolveBatch(r.Context(), ladder[0], problems, append(opts, repro.WithFallback(ladder[1:]...))...)
		s.metrics.solve.observe(time.Since(start))
		if err != nil {
			s.writeError(w, endpoint, http.StatusInternalServerError,
				fmt.Sprintf("primary %s circuit open; ladder failed too: %v", solver, err))
			return nil, false
		}
		for _, res := range results {
			// Results are per-request copies (SolveBatch contract), so
			// stamping cannot corrupt cached entries.
			if res.FallbackSolver == "" {
				res.FallbackSolver = res.Solver
			}
			res.Solver = solver
			res.Degraded = true
			s.metrics.degraded.Add(1)
		}
		return results, true
	}

	start := time.Now()
	results, err := s.runner.SolveBatch(r.Context(), solver, problems, append(opts, repro.WithFallback(ladder...))...)
	s.metrics.solve.observe(time.Since(start))
	if err != nil {
		// Unknown solver names and problem/solver kind mismatches are
		// client errors; anything else is the solver's own failure —
		// and only the latter counts against the breaker.
		code := http.StatusInternalServerError
		if _, lookupErr := repro.LookupSolver(solver); lookupErr != nil {
			code = http.StatusBadRequest
		} else {
			br.failure(time.Now())
		}
		s.writeError(w, endpoint, code, err.Error())
		return nil, false
	}
	degraded := false
	for _, res := range results {
		if res.Degraded {
			degraded = true
			s.metrics.degraded.Add(1)
		}
	}
	// A ladder-served answer is a primary failure in the breaker's
	// books even though the client got a 200.
	if degraded {
		br.failure(time.Now())
	} else {
		br.success()
	}
	return results, true
}

// statusClientClosedRequest is nginx's non-standard 499 — the request
// died with the client, and the status only exists for the metrics.
const statusClientClosedRequest = 499

func (s *Server) handleFamilies(w http.ResponseWriter, _ *http.Request) {
	const endpoint = "/v1/families"
	resp := FamiliesResponse{Solvers: repro.Solvers()}
	for _, name := range scenario.Families() {
		f, err := scenario.Lookup(name)
		if err != nil {
			continue
		}
		resp.Families = append(resp.Families, FamilyInfo{
			Name: f.Name, Description: f.Description, MinSize: f.MinSize,
		})
	}
	s.writeJSON(w, endpoint, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.probe(w, "/healthz")
}

// handleReadyz is the routability probe load balancers watch: it is
// identical to /healthz today (both 503 while draining), but exists as
// its own endpoint so liveness and readiness can diverge without
// clients re-pointing.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.probe(w, "/readyz")
}

func (s *Server) probe(w http.ResponseWriter, endpoint string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		s.metrics.request(endpoint, http.StatusServiceUnavailable)
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	s.metrics.request(endpoint, http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.metrics.request("/metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	hits, misses := s.runner.CacheCounts()
	st := s.runner.BatchStats()
	counters := []gauge{
		{"placementd_requests_shed_total", "Requests rejected at the admission gate with 429.",
			func() float64 { return float64(s.adm.Shed()) }},
		{"placementd_cache_hits_total", "Solves served from the result cache.",
			func() float64 { return float64(hits) }},
		{"placementd_cache_misses_total", "Solves computed fresh.",
			func() float64 { return float64(misses) }},
		{"placementd_solver_nodes_total", "Branch-and-bound nodes explored across all solves.",
			func() float64 { return float64(st.Nodes) }},
		{"placementd_solver_pivots_total", "Simplex pivots across all solves.",
			func() float64 { return float64(st.Pivots) }},
		{"placementd_solver_cuts_total", "Root cutting planes added across all solves.",
			func() float64 { return float64(st.CutsAdded) }},
		{"placementd_solver_warm_starts_total", "Warm-started branch-and-bound nodes across all solves.",
			func() float64 { return float64(st.WarmStarts) }},
		{"placementd_solver_vars_fixed_total", "Variables fixed by reduced-cost fixing across all solves.",
			func() float64 { return float64(st.VarsFixed) }},
		{"placementd_solver_subtree_tasks_total", "Parallel branch-and-bound subtree tasks dispatched across all solves.",
			func() float64 { return float64(st.SubtreeTasks) }},
		{"placementd_solver_steals_total", "Subtree tasks run by a worker other than their round-robin home.",
			func() float64 { return float64(st.Steals) }},
		{"placementd_solver_dominance_prunes_total", "Sets excluded by dominance/symmetry reductions across all solves.",
			func() float64 { return float64(st.DominancePrunes) }},
		{"placementd_degraded_responses_total", "Responses answered by a fallback solver instead of the requested primary.",
			func() float64 { return float64(s.metrics.degraded.Load()) }},
		{"placementd_degraded_solves_total", "Solves the facade's fallback ladder answered after a primary error.",
			func() float64 { return float64(st.Degraded) }},
		{"placementd_panics_total", "Handler panics recovered into 500 responses.",
			func() float64 { return float64(s.metrics.panics.Load()) }},
		{"placementd_cache_quarantined_total", "Persistent cache entries that failed verification and were quarantined.",
			func() float64 { return float64(s.runner.CacheQuarantined()) }},
		{"placementd_breaker_trips_total", "Circuit-breaker open transitions across all solvers.",
			func() float64 { return float64(s.breakers.Trips()) }},
	}
	gauges := []gauge{
		{"placementd_inflight", "Requests currently holding an in-flight slot.",
			func() float64 { return float64(s.adm.InFlight()) }},
		{"placementd_queue_depth", "Requests waiting for an in-flight slot.",
			func() float64 { return float64(s.adm.QueueDepth()) }},
		{"placementd_workers", "Solver worker pool size.",
			func() float64 { return float64(s.runner.Workers()) }},
		{"placementd_breaker_open", "Circuit breakers currently refusing their primary solver.",
			func() float64 { return float64(s.breakers.Open(time.Now())) }},
		{"placementd_cache_hit_ratio", "Hits / (hits + misses) since start; 0 when idle.",
			func() float64 {
				if hits+misses == 0 {
					return 0
				}
				return float64(hits) / float64(hits+misses)
			}},
	}
	s.metrics.write(w, buildinfo.Version(), counters, gauges)
}

// writeJSON encodes one response body and counts the request. Bodies
// are marshaled before any byte is written, so a response is either a
// complete JSON document or an error status — never a torn body.
func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		s.writeError(w, endpoint, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
		return
	}
	s.metrics.request(endpoint, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeError sends the uniform JSON error body and counts the request.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, msg string) {
	s.metrics.request(endpoint, code)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, _ := json.Marshal(errorResponse{Error: msg})
	w.Write(append(data, '\n'))
}
