package main

// The placementd workload: an in-process placementd on a loopback
// listener, driven open-loop by seeded Poisson arrivals.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/service"
)

const (
	pdWorkers      = 2    // engine workers behind the service
	pdConns        = 2    // client connections (the box's core count)
	pdRate         = 20.0 // mean arrivals per second
	pdRepeatFrac   = 0.5  // share of requests that repeat an earlier problem
	pdLatencyLimit = 2 * time.Second
)

// catalogEntry is one kind of request. Every solve is bounded by a node
// cap. tap/ilp on waxman-30 and barabasi-30 is left out: its cold
// solves range from 0.2 s to 14.5 s across seeds.
type catalogEntry struct {
	solver   string
	family   string
	size     int
	coverage float64
	maxNodes int
	weight   int     // share of the problem set
	seeds    []int64 // scenario seed pool; nil = 1, 2, …
}

var catalog = []catalogEntry{
	{repro.SolverTapGreedyGain, "waxman", 30, 0.95, 0, 1, nil},
	{repro.SolverTapExact, "metro", 20, 0.95, 20_000, 1, nil},
	{repro.SolverBeaconILP, "barabasi", 20, 0, 20_000, 1, nil},
	{repro.SolverSamplePPME, "pop", 7, 0.9, 20_000, 2, ppmeSeeds},
}

// ppmeSeeds are the pop-7 scenario seeds up to 160 whose cold PPME solve
// at k = 0.9 closed within 61 branch-and-bound nodes when the pool was
// chosen (about 80 ms on a 2-core x86 box). The other seeds took up to
// 819 nodes and 690 ms, and a few of them in one run decide its p95.
var ppmeSeeds = []int64{
	1, 2, 5, 7, 8, 11, 12, 14, 15, 16, 18, 19, 20, 21, 22, 25, 26, 28, 30, 31, 32, 34,
	35, 36, 41, 43, 44, 45, 47, 48, 49, 51, 54, 58, 60, 64, 65, 66, 68, 69, 70, 71,
	73, 74, 77, 81, 82, 85, 86, 87, 88, 89, 90, 91, 92, 94, 95, 96, 97, 98, 99, 100,
	101, 103, 104, 105, 107, 109, 112, 114, 115, 117, 118, 119, 120, 121, 124, 125,
	126, 127, 128, 129, 130, 132, 133, 136, 138, 139, 140, 141, 142, 144, 147, 148,
	151, 153, 154, 155, 156, 157, 159, 160,
}

// seed is the scenario seed of the entry's j-th problem. Past the end of
// the pool, which a run of 20 s at 20/s does not reach, seeds continue
// from the pool's last one.
func (c catalogEntry) seed(j int) int64 {
	switch {
	case c.seeds == nil:
		return int64(j + 1)
	case j < len(c.seeds):
		return c.seeds[j]
	}
	return c.seeds[len(c.seeds)-1] + int64(j-len(c.seeds)+1)
}

// problem is one distinct request body: a catalog entry at a scenario
// seed.
type problem struct {
	entry int
	seed  int64
}

func (p problem) body() ([]byte, error) {
	e := catalog[p.entry]
	req := service.SolveRequest{Solver: e.solver}
	req.Family, req.Size, req.Seed = e.family, e.size, p.seed
	req.Coverage, req.MaxNodes = e.coverage, e.maxNodes
	return json.Marshal(req)
}

// schedule is the seeded open-loop request list: arrival offsets and
// the problem each request asks.
type schedule struct {
	problems []problem // in order of first sighting
	at       []time.Duration
	ask      []int // index into problems
}

// makeSchedule draws n = pdRate·d Poisson arrivals over d (n sorted
// uniform times: a Poisson process given its count). The requests ask
// a fixed problem set, the catalog entries in weight proportion at
// their pools' leading seeds, each problem twice (one once when n is
// odd): its first sighting solves, its repeat reads the cache. The seed
// draws the order and the timing, so every seed sends the same
// requests.
func makeSchedule(seed int64, d time.Duration) schedule {
	rng := rand.New(rand.NewSource(seed))
	n := max(1, int(math.Round(pdRate*d.Seconds())))
	s := schedule{at: make([]time.Duration, n), ask: make([]int, n)}
	for i := range s.at {
		s.at[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(s.at, func(i, j int) bool { return s.at[i] < s.at[j] })

	var pattern []int // catalog entries in weight proportion
	for e, c := range catalog {
		for range c.weight {
			pattern = append(pattern, e)
		}
	}
	set := make([]problem, (n+1)/2)
	used := make([]int, len(catalog))
	for a := range set {
		e := pattern[a%len(pattern)]
		set[a] = problem{entry: e, seed: catalog[e].seed(used[e])}
		used[e]++
	}
	asks := make([]int, n) // index into set, each twice
	for i := range asks {
		asks[i] = i / 2
	}
	rng.Shuffle(n, func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
	index := map[int]int{} // index into set → index into s.problems
	for i, a := range asks {
		p, ok := index[a]
		if !ok {
			p = len(s.problems)
			index[a] = p
			s.problems = append(s.problems, set[a])
		}
		s.ask[i] = p
	}
	return s
}

// server is one in-process placementd with a fresh store directory.
type server struct {
	url    string
	dir    string
	http   *http.Server
	served chan error
	client *http.Client
}

// startServer builds the service, listens on loopback and returns once
// /healthz answers, the point from which the first request can be sent.
func startServer() (*server, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{CacheDir: dir, Workers: pdWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		url:    "http://" + ln.Addr().String(),
		dir:    dir,
		http:   &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: pdConns, MaxIdleConnsPerHost: pdConns}},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	if _, err := s.get("/healthz"); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

// stop shuts the server down, waits for its serve loop to return and
// removes the store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is what one request got back, with its boundary stamps.
type reply struct {
	due, sent, done time.Time
	track           int
	status          int
	body            []byte
	err             error
}

// drive sends the schedule open-loop over pdConns connections: a
// dispatcher releases each request at its due time into a queue that
// the connections drain, so a stall delays the requests queued behind
// it and that wait counts in their latency. late holds how far past
// its due time the dispatcher released each request, in ms.
func (s *server) drive(start time.Time, sched schedule, bodies [][]byte) (replies []reply, late []float64) {
	replies = make([]reply, len(sched.at))
	late = make([]float64, len(sched.at))
	queue := make(chan int, len(sched.at)) // one slot per request: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < pdConns; w++ {
		wg.Add(1)
		go func(track int) {
			defer wg.Done()
			for i := range queue {
				r := &replies[i]
				r.track = track
				r.sent = time.Now()
				r.status, r.body, r.err = s.post(bodies[sched.ask[i]])
				r.done = time.Now()
			}
		}(w)
	}
	for i, at := range sched.at {
		due := start.Add(at)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		replies[i].due = due
		late[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return replies, late
}

func (s *server) post(body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// promMetrics parses the unlabeled samples of a Prometheus text page.
func promMetrics(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// storeUsage counts the files and bytes of the result store.
func storeUsage(dir string) (files, size float64, err error) {
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files++
		size += float64(info.Size())
		return nil
	})
	return files, size, err
}

// pdRun is one open-loop pass over the schedule on a fresh server.
type pdRun struct {
	start     time.Time
	replies   []reply
	late      []float64
	prom      map[string]float64
	files     float64
	bytes     float64
	allocMB   float64
	firstSeen []int // per problem, the request that first asked it
}

// runSchedule drives the schedule on srv, reads its /metrics and store
// usage, and stops it.
func runSchedule(sched schedule, bodies [][]byte, srv *server) (*pdRun, error) {
	r := &pdRun{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.start = time.Now()
	r.replies, r.late = srv.drive(r.start, sched, bodies)
	runtime.ReadMemStats(&after)
	r.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	page, err := srv.get("/metrics")
	if err == nil {
		r.prom = promMetrics(page)
		r.files, r.bytes, err = storeUsage(srv.dir)
	}
	if serr := srv.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	r.firstSeen = make([]int, len(sched.problems))
	for i := range r.firstSeen {
		r.firstSeen[i] = -1
	}
	for i, p := range sched.ask {
		if r.firstSeen[p] < 0 {
			r.firstSeen[p] = i
		}
	}
	return r, nil
}

// solveResponse is the body of a 200 from /v1/solve.
type solveResponse struct {
	Result *repro.Result `json:"result"`
}

// verify checks every reply: transport errors, non-200s and replies
// over the latency limit fail; a first sighting must pass its answer
// check against a locally generated instance, and a repeat must be
// byte-identical to its first sighting. It returns the decoded first
// sightings.
func (r *pdRun) verify(sched schedule, tr *tracer) (failed, wrong int, firsts []*repro.Result) {
	firsts = make([]*repro.Result, len(sched.problems))
	bad := make([]bool, len(sched.problems))
	for p, i := range r.firstSeen {
		rep := r.replies[i]
		if rep.err != nil || rep.status != http.StatusOK {
			bad[p] = true
			continue
		}
		var resp solveResponse
		if err := json.Unmarshal(rep.body, &resp); err != nil || resp.Result == nil {
			bad[p] = true
			continue
		}
		firsts[p] = resp.Result
		if err := checkAnswer(sched.problems[p], resp.Result, tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: request %d: %v\n", i, err)
			bad[p] = true
			wrong++
		}
	}
	for i, rep := range r.replies {
		p := sched.ask[i]
		first := r.replies[r.firstSeen[p]]
		switch {
		case rep.err != nil || rep.status != http.StatusOK:
			fmt.Fprintf(os.Stderr, "perfbench: request %d: status %d %v %s\n", i, rep.status, rep.err, bytes.TrimSpace(rep.body))
			failed++
		case r.firstSeen[p] == i && bad[p]:
			failed++
		case r.firstSeen[p] != i && !bytes.Equal(rep.body, first.body):
			fmt.Fprintf(os.Stderr, "perfbench: request %d: repeat differs from its first sighting\n", i)
			failed++
			wrong++
		case rep.done.Sub(rep.due) > pdLatencyLimit:
			failed++
		}
	}
	return failed, wrong, firsts
}

// checkAnswer regenerates the problem's scenario locally and checks the
// service's answer against it.
func checkAnswer(p problem, res *repro.Result, tr *tracer) error {
	e := catalog[p.entry]
	sp := tr.begin("scenario.generate", -1)
	sc, err := repro.GenerateScenario(e.family, e.size, p.seed)
	tr.end(sp)
	if err != nil {
		return err
	}
	switch {
	case strings.HasPrefix(e.solver, "tap/"):
		sp := tr.begin("traffic.route", -1)
		in, err := sc.Instance()
		tr.end(sp)
		if err != nil {
			return err
		}
		return checkTapResult(in, res, e.coverage)
	case strings.HasPrefix(e.solver, "beacon/"):
		routers := append(append([]repro.NodeID(nil), sc.POP.Backbone...), sc.POP.Access...)
		ps, err := repro.ComputeProbes(sc.POP.G, routers)
		if err != nil {
			return err
		}
		if res.Beacons == nil {
			return fmt.Errorf("%s returned no beacon placement", e.solver)
		}
		if err := checkProbes(ps); err != nil {
			return err
		}
		return checkBeacons(ps, res.Beacons.Beacons)
	default:
		sp := tr.begin("traffic.route", -1)
		mi, err := sc.MultiInstance(2)
		tr.end(sp)
		if err != nil {
			return err
		}
		if res.Sampling == nil {
			return fmt.Errorf("%s returned no sampling solution", e.solver)
		}
		return checkSampling(mi, res.Sampling.Rates, e.coverage)
	}
}

// runPlacementd measures the service. Untraced, it sets up setupReps
// servers (keeping the last) and drives the schedule over cfg.seconds.
// Traced, it drives a half-length schedule twice on fresh servers,
// untraced and then traced, and reports the per-layer metrics of the
// traced pass.
func runPlacementd(_ context.Context, cfg config) (*outcome, error) {
	d := cfg.seconds
	if cfg.trace {
		d /= 2
	}
	setup := make([]float64, setupReps)
	var sched schedule
	var bodies [][]byte
	var srv *server
	for i := range setup {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		sched = makeSchedule(cfg.seed, d)
		bodies = make([][]byte, len(sched.problems))
		for j, p := range sched.problems {
			var err error
			if bodies[j], err = p.body(); err != nil {
				return nil, err
			}
		}
		var err error
		if srv, err = startServer(); err != nil {
			return nil, err
		}
		setup[i] = time.Since(start).Seconds()
	}
	first, err := runSchedule(sched, bodies, srv)
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(first.replies)}
	var firsts []*repro.Result
	out.failed, out.wrong, firsts = first.verify(sched, nil)
	out.digest = digest(firsts)

	if !cfg.trace {
		var service, latency []float64
		end := first.start
		for _, r := range first.replies {
			service = append(service, ms(r.done.Sub(r.sent)))
			latency = append(latency, ms(r.done.Sub(r.due)))
			if r.done.After(end) {
				end = r.done
			}
		}
		out.metrics = map[string]float64{
			"setup_s":        median(setup),
			"ops_per_s":      float64(len(first.replies)) / end.Sub(first.start).Seconds(),
			"op_ms_p50":      percentile(service, 0.50),
			"op_ms_p90":      percentile(service, 0.90),
			"latency_ms_p50": percentile(latency, 0.50),
			"latency_ms_p95": percentile(latency, 0.95),
		}
		out.samples = map[string]int{"requests": len(first.replies), "problems": len(sched.problems), "setups": setupReps}
		return out, nil
	}

	srv, err = startServer()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := runSchedule(sched, bodies, srv)
	if err != nil {
		return nil, err
	}
	for i, r := range traced.replies {
		op := tr.add("op", -1, i, r.track, r.due, r.done)
		tr.add("loadgen.queue", op, i, r.track, r.due, r.sent)
		tr.add("service.http", op, i, r.track, r.sent, r.done)
	}
	failed, wrong, firsts := traced.verify(sched, tr)
	if digest(firsts) != out.digest {
		wrong++
		fmt.Fprintf(os.Stderr, "perfbench: traced pass answered differently from the untraced one\n")
	}
	out.attempted += len(traced.replies)
	out.failed += failed
	out.wrong += wrong

	c := counters{}
	var hit, miss, solve, overhead []float64
	for i, r := range traced.replies {
		p := sched.ask[i]
		svc := ms(r.done.Sub(r.sent))
		if traced.firstSeen[p] != i {
			hit = append(hit, svc)
			continue
		}
		miss = append(miss, svc)
		if res := firsts[p]; res != nil {
			solve = append(solve, ms(res.Stats.Wall))
			overhead = append(overhead, svc-ms(res.Stats.Wall))
			layer := "mip"
			if res.Solver == repro.SolverTapExact {
				layer = "cover"
				c["cover.solves"]++
				if !res.Optimal {
					c["cover.capped"]++
				}
			}
			c.addEffort(layer, res.Stats, res.Stats.Wall)
		}
	}
	var plainLat, tracedLat []float64
	for i := range first.replies {
		plainLat = append(plainLat, ms(first.replies[i].done.Sub(first.replies[i].due)))
		tracedLat = append(tracedLat, ms(traced.replies[i].done.Sub(traced.replies[i].due)))
	}
	m := layerMetrics(tr.spans, c, 1, plainLat, tracedLat)
	m["service.hit_ms_p50"] = percentile(hit, 0.5)
	m["service.miss_ms_p50"] = percentile(miss, 0.5)
	m["service.solve_ms_p50"] = percentile(solve, 0.5)
	m["service.overhead_ms_p50"] = percentile(overhead, 0.5)
	m["service.shed"] = traced.prom["placementd_requests_shed_total"]
	m["service.degraded"] = traced.prom["placementd_degraded_responses_total"]
	m["engine.cache_hit_frac"] = traced.prom["placementd_cache_hit_ratio"]
	m["store.files"] = traced.files
	m["store.bytes"] = traced.bytes
	m["store.quarantined"] = traced.prom["placementd_cache_quarantined_total"]
	m["loadgen.late_ms_p95"] = percentile(traced.late, 0.95)
	m["go.alloc_mb_per_op"] = first.allocMB / float64(len(first.replies))
	out.metrics = m
	out.samples = map[string]int{"requests": len(first.replies) + len(traced.replies), "problems": len(sched.problems),
		"hits": len(hit), "misses": len(miss)}
	out.spans = tr.spans
	return out, nil
}

// digest identifies the answers to the first sightings, in order.
func digest(firsts []*repro.Result) string {
	h := sha256.New()
	for i, r := range firsts {
		if r != nil {
			fmt.Fprintf(h, "%d: %s\n", i, answerOf(r))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
