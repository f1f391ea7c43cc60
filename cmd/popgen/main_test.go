package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/topology"
)

// runToFile executes run() with stdout redirected to a temp file and
// returns the produced text.
func runToFile(t *testing.T, args ...string) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	f.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

func TestMapOutputParsesBack(t *testing.T) {
	out, err := runToFile(t, "-preset", "paper10", "-seed", "3", "-format", "map")
	if err != nil {
		t.Fatal(err)
	}
	pop, err := topology.Read(strings.NewReader(out))
	if err != nil {
		t.Fatalf("generated map does not parse: %v", err)
	}
	if pop.Routers() != 10 || pop.G.NumEdges() != 27 {
		t.Fatalf("parsed %d routers / %d links, want 10/27", pop.Routers(), pop.G.NumEdges())
	}
}

func TestDOTOutput(t *testing.T) {
	out, err := runToFile(t, "-routers", "6", "-links", "9", "-endpoints", "4", "-format", "dot")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"graph \"pop\"", "shape=box", "--"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestDOTWithLoads(t *testing.T) {
	out, err := runToFile(t, "-routers", "6", "-links", "9", "-endpoints", "4", "-format", "dot", "-loads")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "penwidth") {
		t.Errorf("load widths missing:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad preset": {"-preset", "nope"},
		"bad format": {"-format", "yaml"},
		"bad flag":   {"-bogus"},
	} {
		if _, err := runToFile(t, args...); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestFamilyMapOutputParsesBack(t *testing.T) {
	for _, fam := range []string{"waxman", "barabasi", "metro", "fattree", "pop"} {
		out, err := runToFile(t, "-family", fam, "-size", "12", "-seed", "7", "-format", "map")
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		pop, err := topology.Read(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: generated map does not parse: %v", fam, err)
		}
		if pop.Routers() != 12 {
			t.Fatalf("%s: parsed %d routers, want 12", fam, pop.Routers())
		}
	}
}

func TestFamilyDOTWithLoads(t *testing.T) {
	out, err := runToFile(t, "-family", "waxman", "-size", "10", "-seed", "1", "-format", "dot", "-loads")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "penwidth") {
		t.Errorf("DOT with -loads missing edge widths:\n%s", out)
	}
}

func TestFamiliesListing(t *testing.T) {
	out, err := runToFile(t, "-families")
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"barabasi", "churn", "fattree", "metro", "pop", "waxman"} {
		if !strings.Contains(out, fam) {
			t.Errorf("families listing missing %q:\n%s", fam, out)
		}
	}
}

func TestUnknownFamilyErrors(t *testing.T) {
	if _, err := runToFile(t, "-family", "no-such", "-size", "10"); err == nil {
		t.Fatal("want error for unknown family")
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := runToFile(t, "-version")
	if err != nil {
		t.Fatalf("run -version: %v", err)
	}
	if !strings.HasPrefix(out, "popgen ") {
		t.Fatalf("version output = %q", out)
	}
}
