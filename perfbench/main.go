// Command perfbench is the repository's benchmark. It runs one workload
// at one seed for a fixed time, checks every answer with its own code,
// and prints the workload's metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run is split in two halves over the same ops, one
// untraced and one with spans around every call into a layer; it reports
// the per-layer metrics, the tracing overhead, and writes the spans as a
// trace file. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload ppme --seed 3 --seconds 15 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, cfg config) (*outcome, error){
	"beacon80":   beacon80(4).run,
	"ppme":       ppme(4).run,
	"tap15":      tap15(4).run,
	"placementd": runPlacementd,
}

// endToEnd and perLayer name every metric a run prints, with its unit:
// -trace 0 prints exactly endToEnd, -trace 1 exactly perLayer, a layer a
// workload does not exercise reading 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p95", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricSpec{
	{"active.probes_ms", "ms"},
	{"active.probes", "count"},
	{"active.thiran_ms", "ms"},
	{"active.greedy_ms", "ms"},
	{"active.ilp_ms", "ms"},
	{"go.alloc_mb_per_op", "MB"},
	{"lp.pivots", "count"},
	{"lp.refactorizations", "count"},
	{"lp.devex_resets", "count"},
	{"lp.pivots_per_ms", "1/ms"},
	{"mip.nodes", "count"},
	{"mip.strong_branches", "count"},
	{"mip.warm_start_frac", "frac"},
	{"mip.cuts", "count"},
	{"mip.vars_fixed", "count"},
	{"mip.presolve_removed", "count"},
	{"sampling.ppme_ms", "ms"},
	{"sampling.fullrate_ms", "ms"},
	{"cover.exact_ms", "ms"},
	{"cover.nodes", "count"},
	{"cover.dominance_prunes", "count"},
	{"cover.capped_frac", "frac"},
	{"passive.greedy_load_ms", "ms"},
	{"topology.generate_ms", "ms"},
	{"traffic.route_ms", "ms"},
	{"scenario.generate_ms", "ms"},
	{"service.hit_ms_p50", "ms"},
	{"service.miss_ms_p50", "ms"},
	{"service.solve_ms_p50", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.shed", "count"},
	{"service.degraded", "count"},
	{"engine.cache_hit_frac", "frac"},
	{"store.files", "count"},
	{"store.bytes", "B"},
	{"store.quarantined", "count"},
	{"loadgen.late_ms_p95", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
	{"trace.spans", "count"},
}

type metricSpec struct{ name, unit string }

// setupReps is how many times a run sets up its workload; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 51

type config struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceOut string
}

// outcome is what a workload run reports: the attempted and failed op
// counts, whether every answer check passed, the metrics by name, and
// the sample counts behind the percentiles.
type outcome struct {
	attempted, failed, wrong int
	digest                   string // hash of the answers, for reproducibility
	metrics                  map[string]float64
	samples                  map[string]int
	spans                    []span
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: beacon80, ppme, tap15 or placementd")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 15, "measured run time")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "trace file (default .bench_build/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload in beacon80|ppme|tap15|placementd, -seconds > 0, -trace 0|1\n")
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, traceOut: *traceOut}
	if cfg.trace && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
	}
	info := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}

	out, err := w(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		if err := writeTrace(cfg.traceOut, out.spans, info); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		info["trace_file"] = cfg.traceOut
	}

	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	} else {
		out.metrics["rss_peak_mb"] = peakRSSMB()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(specs))
	for _, s := range specs {
		v := out.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[s.name] = value{v, s.unit}
		fmt.Fprintf(stdout, "%-26s %14.6g %s\n", s.name, v, s.unit)
	}
	info["samples"] = out.samples
	info["answers"] = out.digest
	info["failed_frac"] = float64(out.failed) / float64(max(out.attempted, 1))
	detail, _ := json.Marshal(info)
	fmt.Fprintf(stdout, "run %s\n", detail)
	final, _ := json.Marshal(map[string]any{
		"correct": out.wrong == 0, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	fmt.Fprintln(stdout, string(final))
	return 0
}

// peakRSSMB is the process's peak resident set size in MB (VmHWM),
// falling back to the Go runtime's total mapped memory off Linux.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
