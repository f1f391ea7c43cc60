package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
)

func jsonBody(res *repro.Result) ([]byte, error) {
	data, err := json.Marshal(solveResponse{Result: res})
	return append(data, '\n'), err
}

func opNames(t *testing.T, w library, seed int64) []string {
	t.Helper()
	ops, err := w(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.name
	}
	return names
}

// onePass runs every op of the workload once and returns the digest of
// the answers, failing the test on any failed op.
func onePass(t *testing.T, w library, seed int64) string {
	t.Helper()
	ops, err := w(seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := newPhase(len(ops))
	for i, op := range ops {
		p.runOp(context.Background(), op, i, nil)
	}
	if p.failed != 0 {
		t.Fatalf("%d of %d ops failed", p.failed, p.attempted)
	}
	return p.digest()
}

func TestOpListReproducible(t *testing.T) {
	for name, w := range map[string]library{"beacon80": beacon80(1), "ppme": ppme(2), "tap15": tap15(2)} {
		a, b := opNames(t, w, 11), opNames(t, w, 11)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 built two different op lists", name)
		}
		if reflect.DeepEqual(a, opNames(t, w, 12)) {
			t.Errorf("%s: seeds 11 and 12 built the same op list", name)
		}
	}
}

func TestAnswerDigestReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a pass of each library workload twice")
	}
	for name, w := range map[string]library{"beacon80": beacon80(1), "ppme": ppme(1), "tap15": tap15(1)} {
		if a, b := onePass(t, w, 5), onePass(t, w, 5); a != b {
			t.Errorf("%s: seed 5 answered differently: %s vs %s", name, a, b)
		}
	}
}

func TestScheduleReproducible(t *testing.T) {
	const d = 10 * time.Second
	a, b := makeSchedule(3, d), makeSchedule(3, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 3 drew two different schedules")
	}
	c := makeSchedule(4, d)
	if reflect.DeepEqual(a.at, c.at) || reflect.DeepEqual(a.ask, c.ask) {
		t.Error("seeds 3 and 4 drew the same arrivals or asks")
	}

	if n := int(pdRate * d.Seconds()); len(a.at) != n || len(a.ask) != n {
		t.Fatalf("%d arrivals, want %d", len(a.at), n)
	}
	if !sort.SliceIsSorted(a.at, func(i, j int) bool { return a.at[i] < a.at[j] }) || a.at[len(a.at)-1] >= d {
		t.Error("arrivals are not sorted inside the run")
	}
	if want := (len(a.at) + 1) / 2; len(a.problems) != want {
		t.Errorf("%d first sightings, want %d", len(a.problems), want)
	}
	// Every seed asks the same cold solves, only in another order.
	set := func(s schedule) []problem {
		ps := append([]problem(nil), s.problems...)
		sort.Slice(ps, func(i, j int) bool {
			return ps[i].entry < ps[j].entry || ps[i].entry == ps[j].entry && ps[i].seed < ps[j].seed
		})
		return ps
	}
	if !reflect.DeepEqual(set(a), set(c)) {
		t.Error("seeds 3 and 4 ask different problem sets")
	}
	seen := 0
	for i, p := range a.ask {
		if p > seen {
			t.Fatalf("request %d asks problem %d before problem %d was first asked", i, p, seen)
		}
		if p == seen {
			seen++
		}
	}
}

func TestPlacementdShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives an in-process placementd")
	}
	t.Setenv("TMPDIR", t.TempDir())
	var digests []string
	for _, traced := range []bool{false, true, false} {
		out, err := runPlacementd(context.Background(), config{seed: 2, seconds: 2 * time.Second, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		// Under -race, slow replies miss the latency limit and count as
		// failed; their answers must still check.
		if out.wrong != 0 || out.attempted == 0 || (!raceEnabled && out.failed != 0) {
			t.Fatalf("traced=%v: %d of %d failed, %d wrong", traced, out.failed, out.attempted, out.wrong)
		}
		if traced {
			if out.metrics["store.files"] == 0 || out.metrics["engine.cache_hit_frac"] == 0 {
				t.Errorf("traced run saw no store writes or cache hits: %v", out.metrics)
			}
			continue
		}
		digests = append(digests, out.digest)
	}
	if digests[0] != digests[1] {
		t.Errorf("seed 2 answered differently: %s vs %s", digests[0], digests[1])
	}
}

// TestMetricNamesMatchBenchmarkJSON holds the printed metric names and
// units to the ones BENCHMARK.json declares.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i, m := range declared {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s %s, printed %s %s", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
}
