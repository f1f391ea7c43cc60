package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func runToString(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb, progress strings.Builder
	err := run(args, &sb, &progress)
	return sb.String(), err
}

func TestFig6(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "fig6.dot")
	out, err := runToString(t, "-figure", "fig6", "-dot", dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "% of load") {
		t.Errorf("fig6 text wrong:\n%s", out)
	}
	b, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "penwidth") {
		t.Error("fig6 DOT missing load widths")
	}
}

func TestFig7SmallSeeds(t *testing.T) {
	out, err := runToString(t, "-figure", "fig7", "-seeds", "2")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 7", "Greedy algorithm", "ILP", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9SmallSeeds(t *testing.T) {
	out, err := runToString(t, "-figure", "fig9", "-seeds", "1")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 9", "Thiran", "Greedy", "ILP"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 output missing %q:\n%s", want, out)
		}
	}
}

func TestSamplersFigure(t *testing.T) {
	out, err := runToString(t, "-figure", "samplers")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mice") || !strings.Contains(out, "geometric") {
		t.Errorf("samplers output wrong:\n%s", out)
	}
}

func TestDynamicFigure(t *testing.T) {
	out, err := runToString(t, "-figure", "dynamic", "-seeds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "recomputes") {
		t.Errorf("dynamic output wrong:\n%s", out)
	}
}

func TestReplayFigure(t *testing.T) {
	out, err := runToString(t, "-figure", "replay", "-seeds", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "promised") || !strings.Contains(out, "achieved") {
		t.Errorf("replay output wrong:\n%s", out)
	}
}

// TestChurnReplay drives the -churn-steps session replay: the mode
// must verify warm==cold itself (a divergence is an error), report the
// delta class and effort counters on stdout, keep wall clock on
// stderr, and emit deterministic stdout bytes across repeat runs.
func TestChurnReplay(t *testing.T) {
	var out, progress strings.Builder
	if err := run([]string{"-churn-steps", "2"}, &out, &progress); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"session re-optimization", "rescale", "warmstarts"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("churn replay output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(progress.String(), "churn replay cold") {
		t.Errorf("churn replay timing line missing from stderr:\n%s", progress.String())
	}
	if strings.Contains(out.String(), "repro: churn replay") {
		t.Error("wall clock progress line leaked onto stdout")
	}
	var out2, prog2 strings.Builder
	if err := run([]string{"-churn-steps", "2"}, &out2, &prog2); err != nil {
		t.Fatal(err)
	}
	if out2.String() != out.String() {
		t.Fatalf("churn replay stdout not deterministic:\n%s\nvs:\n%s", out.String(), out2.String())
	}
}

// TestParallelFlagByteIdentical is the CLI face of the engine's
// determinism guarantee: -parallel 1 and -parallel 8 emit the same
// bytes on stdout for every figure, with progress confined to stderr.
func TestParallelFlagByteIdentical(t *testing.T) {
	var serialOut, serialProg strings.Builder
	if err := run([]string{"-figure", "all", "-seeds", "1", "-parallel", "1"}, &serialOut, &serialProg); err != nil {
		t.Fatal(err)
	}
	var parOut, parProg strings.Builder
	if err := run([]string{"-figure", "all", "-seeds", "1", "-parallel", "8"}, &parOut, &parProg); err != nil {
		t.Fatal(err)
	}
	if parOut.String() != serialOut.String() {
		t.Fatalf("-parallel 8 output differs from -parallel 1:\n%s\nwant:\n%s", parOut.String(), serialOut.String())
	}
	for _, prog := range []string{serialProg.String(), parProg.String()} {
		if !strings.Contains(prog, "fig7") || !strings.Contains(prog, "workers=") || !strings.Contains(prog, "cache=") {
			t.Errorf("progress line missing engine fields:\n%s", prog)
		}
	}
	if strings.Contains(parOut.String(), "workers=") {
		t.Error("progress leaked onto stdout")
	}
}

// TestBenchJSONTimesThePrintTable: -bench-json reports one entry per
// figure of the print table, in print order, then churn_resolve.
func TestBenchJSONTimesThePrintTable(t *testing.T) {
	if testing.Short() {
		t.Skip("times every figure; TestParallelFlagByteIdentical already renders the table in -short mode")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := runToString(t, "-bench-json", path, "-seeds", "1"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report benchReport
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, f := range report.Figures {
		got = append(got, f.Name)
	}
	for _, f := range figures(nil, io.Discard) {
		want = append(want, f.name)
	}
	want = append(want, "churn_resolve")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("bench entries %v, want %v", got, want)
	}
}

// TestSeedsBelowOneRejected: a non-positive -seeds is an input error in
// both modes, reported before any figure runs or any report is written.
func TestSeedsBelowOneRejected(t *testing.T) {
	for _, seeds := range []string{"0", "-1"} {
		for _, fig := range []string{"fig7", "fig9"} {
			out, err := runToString(t, "-figure", fig, "-seeds", seeds)
			if err == nil || !strings.Contains(err.Error(), "-seeds") {
				t.Errorf("-figure %s -seeds %s: err = %v, want a -seeds error", fig, seeds, err)
			}
			if out != "" {
				t.Errorf("-figure %s -seeds %s printed output:\n%s", fig, seeds, out)
			}
		}
		path := filepath.Join(t.TempDir(), "bench.json")
		if _, err := runToString(t, "-bench-json", path, "-seeds", seeds); err == nil {
			t.Errorf("-bench-json -seeds %s accepted", seeds)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-bench-json -seeds %s wrote a report", seeds)
		}
	}
}

func TestUnknownFigure(t *testing.T) {
	if _, err := runToString(t, "-figure", "fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if _, err := runToString(t, "-bogusflag"); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := runToString(t, "-version")
	if err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(out, "repro ") {
		t.Fatalf("version output = %q", out)
	}
}
