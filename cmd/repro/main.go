// Command repro regenerates every figure of the paper's evaluation
// section as text series (see DESIGN.md §3). Figures run on the
// deterministic parallel scenario engine: seed × sweep-point cells fan
// out on -parallel workers and merge in canonical order, so the series
// are byte-identical for any worker count.
//
// Usage:
//
//	repro -figure fig7            # one figure to stdout
//	repro -figure all -seeds 20   # everything, paper-strength averaging
//	repro -figure fig6 -dot fig6.dot
//	repro -figure fig8 -timeout 30s   # exact solves degrade to incumbents
//	repro -figure fig9 -parallel 1    # serial baseline (same bytes)
//
// Per-figure progress/timing lines (wall clock, engine cells, cache
// hits/misses, aggregated solver effort) go to stderr; series go to
// stdout. One figure table drives both modes: -bench-json times each
// entry exactly as -figure renders it (output discarded).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, out, progress io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	figure := fs.String("figure", "all", "fig6|fig7|fig8|fig9|fig10|fig11|ppme|samplers|large150|dynamic|replay|all")
	seeds := fs.Int("seeds", experiments.DefaultSeeds, "runs per point (the paper uses 20)")
	dotFile := fs.String("dot", "", "with -figure fig6: also write a Graphviz rendering here")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run; expired exact solves report their incumbents (0 = none)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "engine workers per figure (1 = serial; output is byte-identical either way)")
	benchJSON := fs.String("bench-json", "", "time every figure at -seeds averaging and write the wall-clock JSON report here (e.g. BENCH_figs.json); series output is suppressed")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.Fprint(out, "repro")
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}
	if *parallel <= 0 {
		// Resolve the engine's "<= 0 means GOMAXPROCS" default up front
		// so progress lines and the bench report record the worker count
		// actually used.
		*parallel = runtime.GOMAXPROCS(0)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *benchJSON != "" {
		return writeBenchJSON(ctx, *benchJSON, *figure, *seeds, *parallel, out)
	}

	var dot io.Writer
	if *dotFile != "" && (*figure == "all" || *figure == "fig6") {
		//placevet:ignore atomicwrite -- user-named figure artifact, not a cache entry; a torn write is visible, not silently served
		f, err := os.Create(*dotFile)
		if err != nil {
			return err
		}
		defer f.Close()
		dot = f
	}
	matched := false
	for _, f := range figures(dot, progress) {
		if *figure != "all" && *figure != f.name {
			continue
		}
		if matched {
			fmt.Fprintln(out)
		}
		matched = true
		eng, wall, err := runFigure(ctx, f, *seeds, *parallel, out)
		if err != nil {
			return err
		}
		hits, misses := eng.Cache().Counts()
		st := eng.Stats()
		fmt.Fprintf(progress, "repro: %-8s %8.2fs  workers=%d cells=%d cache=%d/%d hit/miss (%.1f%%)  nodes=%d pivots=%d cuts=%d fixed=%d subtrees=%d steals=%d domprunes=%d\n",
			f.name, wall.Seconds(), eng.Workers(), eng.Tasks(), hits, misses, 100*hitRate(hits, misses), st.Nodes, st.Pivots, st.CutsAdded, st.VarsFixed, st.SubtreeTasks, st.Steals, st.DominancePrunes)
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", *figure)
	}
	return nil
}

// figureEntry is one entry of the figure table. render writes the
// figure's deterministic text to out; -figure prints it and -bench-json
// renders it into io.Discard, so the report times exactly what -figure
// prints.
type figureEntry struct {
	name   string
	render func(ctx context.Context, eng *engine.Runner, seeds int, out io.Writer) error
}

// figures lists every figure in print order. dot receives fig6's
// Graphviz rendering (nil = none); progress receives the stderr-only
// timing notes that must stay off the deterministic stdout.
func figures(dot, progress io.Writer) []figureEntry {
	series := func(fn func(context.Context, *engine.Runner, int) *stats.Series) func(context.Context, *engine.Runner, int, io.Writer) error {
		return func(ctx context.Context, eng *engine.Runner, seeds int, out io.Writer) error {
			return fn(ctx, eng, seeds).Write(out)
		}
	}
	return []figureEntry{
		{"fig6", func(_ context.Context, _ *engine.Runner, _ int, out io.Writer) error {
			return experiments.Fig6(1, out, dot)
		}},
		{"fig7", series(experiments.Fig7)},
		{"fig8", series(experiments.Fig8)},
		{"fig9", series(experiments.Fig9)},
		{"fig10", series(experiments.Fig10)},
		{"fig11", series(experiments.Fig11)},
		{"ppme", series(experiments.PPMECost)},
		{"samplers", func(ctx context.Context, eng *engine.Runner, _ int, out io.Writer) error {
			return experiments.SamplerBias(ctx, eng, 1).Write(out)
		}},
		{"large150", series(experiments.Large150)},
		{"dynamic", func(ctx context.Context, eng *engine.Runner, seeds int, out io.Writer) error {
			results, err := experiments.Dynamic(ctx, eng, min(seeds, 5), 10, 0.45)
			if err != nil {
				return err
			}
			// Wall-clock columns belong on stderr with the rest of the
			// timing: stdout carries only deterministic bytes, so
			// -parallel 1 and -parallel 8 (and any two repeat runs)
			// compare equal across every figure.
			fmt.Fprintln(out, "# §5.4: dynamic traffic — PPME* rate adaptation under ±45% drift per round")
			fmt.Fprintf(out, "%-6s %-8s %-12s %-12s %-12s\n",
				"seed", "rounds", "recomputes", "min cover", "final cover")
			var reopt time.Duration
			for _, res := range results {
				fmt.Fprintf(out, "%-6d %-8d %-12d %11.2f%% %11.2f%%\n",
					res.Seed, res.Rounds, res.Recomputes, res.MinCoverage*100, res.FinalCoverage*100)
				reopt += res.ReoptTime
			}
			fmt.Fprintf(progress, "repro: dynamic reopt time %v across %d seeds\n", reopt, len(results))
			return nil
		}},
		{"replay", func(ctx context.Context, eng *engine.Runner, seeds int, out io.Writer) error {
			const k = 0.9
			outs, err := experiments.Replay(ctx, eng, min(seeds, 5), k)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "# validation: packet replay of PPME solutions (promised vs achieved coverage)")
			fmt.Fprintf(out, "%-6s %-6s %-12s %-12s\n", "seed", "k", "promised", "achieved")
			for _, o := range outs {
				fmt.Fprintf(out, "%-6d %-6.2f %11.2f%% %11.2f%%\n", o.Seed, k, o.Promised*100, o.Achieved*100)
			}
			return nil
		}},
	}
}

// runFigure renders f on a fresh engine, so cache and effort counters
// are per figure, and returns the engine and the wall time.
func runFigure(ctx context.Context, f figureEntry, seeds, parallel int, out io.Writer) (*engine.Runner, time.Duration, error) {
	eng := engine.New(engine.Options{Workers: parallel, Cache: engine.NewCache()})
	start := time.Now()
	err := f.render(ctx, eng, seeds, out)
	return eng, time.Since(start), err
}

// benchReport is the schema of the -bench-json output: one wall-clock
// sample per figure, so the performance trajectory of the reproduction
// is tracked across PRs (CI regenerates it on every push).
type benchReport struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	Seeds       int          `json:"seeds"`
	Workers     int          `json:"workers"`
	Figures     []benchEntry `json:"figures"`
}

type benchEntry struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	// Solver effort aggregated over the figure's engine: branch-and-
	// bound nodes, simplex pivots, and cutting planes added. They track
	// the tree-size trajectory across PRs alongside the wall clock
	// (dynamic and replay do not report solver effort: zeros).
	Nodes  int `json:"nodes"`
	Pivots int `json:"pivots"`
	Cuts   int `json:"cuts"`
	// Parallel branch-and-bound effort: subtree tasks dispatched over
	// the worker pool, tasks stolen off their round-robin home worker
	// (always 0 at -parallel 1), and dominance/symmetry exclusions in
	// the combinatorial cover search.
	SubtreeTasks    int `json:"subtree_tasks"`
	Steals          int `json:"steals"`
	DominancePrunes int `json:"dominance_prunes"`
	// Memo-cache efficacy for the figure's engine: how much of the
	// seed × sweep-point grid collapsed onto already-solved instances.
	CacheHits    int     `json:"cache_hits"`
	CacheMisses  int     `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// hitRate is hits/(hits+misses), 0 when the cache saw no lookups.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// writeBenchJSON times the selected figures (-figure, default all)
// once at the requested averaging depth and writes the report. It
// walks the same figure table as the print path, each figure on a
// fresh engine (workers from -parallel, per-figure cache),
// sequentially in table order; a canceled ctx degrades exact solves to
// incumbents exactly as in normal runs, which would show up as an
// (honest) speedup, so pair -bench-json with an unbounded run.
func writeBenchJSON(ctx context.Context, path, figure string, seeds, parallel int, log io.Writer) error {
	report := benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Seeds:       seeds,
		Workers:     parallel,
	}
	matched := false
	for _, f := range figures(nil, io.Discard) {
		if figure != "all" && figure != f.name {
			continue
		}
		matched = true
		eng, wall, err := runFigure(ctx, f, seeds, parallel, io.Discard)
		if err != nil {
			return fmt.Errorf("bench %s: %w", f.name, err)
		}
		ms := float64(wall.Microseconds()) / 1000
		st := eng.Stats()
		hits, misses := eng.Cache().Counts()
		report.Figures = append(report.Figures, benchEntry{Name: f.name, WallMS: ms,
			Nodes: st.Nodes, Pivots: st.Pivots, Cuts: st.CutsAdded,
			SubtreeTasks: st.SubtreeTasks, Steals: st.Steals, DominancePrunes: st.DominancePrunes,
			CacheHits: int(hits), CacheMisses: int(misses), CacheHitRate: hitRate(hits, misses)})
		fmt.Fprintf(log, "bench %-10s %10.1f ms  nodes=%d pivots=%d cuts=%d subtrees=%d domprunes=%d cache=%d/%d\n",
			f.name, ms, st.Nodes, st.Pivots, st.CutsAdded, st.SubtreeTasks, st.DominancePrunes, hits, misses)
	}
	if !matched {
		return fmt.Errorf("unknown figure %q", figure)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	//placevet:ignore atomicwrite -- bench report for humans/CI diffing, never reloaded as a cache entry
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
