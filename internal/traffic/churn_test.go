package traffic

import (
	"math"
	"math/rand"
	"testing"
)

// badVolume reports volumes core.Validate would reject.
func badVolume(v float64) bool {
	return !(v > 0) || math.IsNaN(v) || math.IsInf(v, 0)
}

// churnAdded is the number of fresh demands Churn appends to n input
// demands under an Add fraction of add (0 selects the 0.2 default).
func churnAdded(n int, add float64) int {
	if add == 0 {
		add = 0.2
	}
	return int(float64(n)*add + 0.5)
}

// checkChurnShape checks what Churn's output says about itself: added
// demands come last, the survivors before them are an in-order
// subsequence of the input (matched by endpoints), no demand is a
// self-pair, and no volume is unusable. It returns, for each survivor,
// the index of the input demand it was matched to.
func checkChurnShape(t *testing.T, in, out []Demand, add int) []int {
	t.Helper()
	kept := len(out) - add
	if kept < 0 || kept > len(in) {
		t.Fatalf("%d demands out of %d in with %d added: %d survivors", len(out), len(in), add, kept)
	}
	from := make([]int, 0, kept)
	j := 0
	for i, d := range out {
		if badVolume(d.Volume) {
			t.Fatalf("output %d has unusable volume %g", i, d.Volume)
		}
		if d.Src == d.Dst {
			t.Fatalf("output %d is a self-demand on %d", i, d.Src)
		}
		if i >= kept {
			continue
		}
		for j < len(in) && (in[j].Src != d.Src || in[j].Dst != d.Dst) {
			j++
		}
		if j == len(in) {
			t.Fatalf("survivor %d (%d→%d) is not an in-order input demand", i, d.Src, d.Dst)
		}
		from = append(from, j)
		j++
	}
	return from
}

// checkFactors checks that every survivor of a finite positive input
// volume was rescaled by a factor in [lo, hi] (to rounding).
func checkFactors(t *testing.T, in, out []Demand, from []int, lo, hi float64) {
	t.Helper()
	for i, j := range from {
		v := in[j].Volume
		if badVolume(v) {
			continue
		}
		if f := out[i].Volume / v; f < lo*(1-1e-12) || f > hi*(1+1e-12) {
			t.Fatalf("survivor %d rescaled by %g, outside [%g, %g]", i, f, lo, hi)
		}
	}
}

// TestChurnRescalesWithinRange: with nothing dropped, every input
// demand survives in order, rescaled by a factor inside the configured
// range, and the expected number of fresh demands follows; with a
// real drop fraction the survivors are still an in-order subset.
func TestChurnRescalesWithinRange(t *testing.T) {
	pop := modelPOP(11)
	dem := Demands(pop, Config{Seed: 12})
	for _, drop := range []float64{1e-12, 0.3} {
		cfg := ChurnConfig{Seed: 13, Drop: drop, Add: 0.25, RescaleLow: 0.5, RescaleHigh: 2}
		out, err := Churn(pop, dem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		add := churnAdded(len(dem), cfg.Add)
		from := checkChurnShape(t, dem, out, add)
		if drop < 1e-9 && len(from) != len(dem) {
			t.Fatalf("drop %g kept %d of %d demands", drop, len(from), len(dem))
		}
		if drop > 0.1 && len(from) == len(dem) {
			t.Fatalf("drop %g dropped nothing from %d demands", drop, len(dem))
		}
		checkFactors(t, dem, out, from, cfg.RescaleLow, cfg.RescaleHigh)
	}
}

// TestChurnSanitizesGarbageVolumes: NaN, ±Inf, zero and negative input
// volumes must never survive into the output (the old guard's <= 0
// comparison waved NaN and +Inf straight through); each comes out as
// the fallback, a hundredth of the usable input volumes' mean.
func TestChurnSanitizesGarbageVolumes(t *testing.T) {
	pop := modelPOP(14)
	a, b := pop.Endpoints[0], pop.Endpoints[1]
	dem := []Demand{
		{Src: a, Dst: b, Volume: math.NaN()},
		{Src: b, Dst: a, Volume: math.Inf(1)},
		{Src: a, Dst: b, Volume: math.Inf(-1)},
		{Src: b, Dst: a, Volume: -3},
		{Src: a, Dst: b, Volume: 0},
		{Src: b, Dst: a, Volume: 7},
	}
	// Drop ~0 so the garbage rows survive into the rescale stage.
	out, err := Churn(pop, dem, ChurnConfig{Seed: 1, Drop: 1e-12, Add: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	from := checkChurnShape(t, dem, out, churnAdded(len(dem), 0.2))
	if len(from) != len(dem) {
		t.Fatalf("drop 1e-12 kept %d of %d demands", len(from), len(dem))
	}
	// 7 is the only usable input volume.
	for i := 0; i < 5; i++ {
		if out[i].Volume != 7.0/100 {
			t.Fatalf("garbage row %d came out at %g, want the fallback %g", i, out[i].Volume, 7.0/100)
		}
	}
	if err := checkRoutable(pop, out); err != nil {
		t.Fatalf("sanitized churn output not routable: %v", err)
	}
}

// TestChurnPropertyNoBadVolumes sweeps seeds and configs: churned
// matrices never contain negative/NaN/Inf demands, mirroring the
// topology hardening property tests, and the survivors of usable
// volumes stay inside the rescale range.
func TestChurnPropertyNoBadVolumes(t *testing.T) {
	pop := modelPOP(15)
	base := Demands(pop, Config{Seed: 16})
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		cfg := ChurnConfig{
			Seed:        rng.Int63(),
			Drop:        rng.Float64() * 0.9,
			Add:         rng.Float64() * 0.9,
			RescaleLow:  0.1 + rng.Float64(),
			RescaleHigh: 1.2 + rng.Float64()*3,
		}
		dem := base
		// Every third trial seeds garbage volumes into the input.
		if trial%3 == 0 {
			dem = append([]Demand(nil), base...)
			dem[rng.Intn(len(dem))].Volume = math.NaN()
			dem[rng.Intn(len(dem))].Volume = math.Inf(1)
			dem[rng.Intn(len(dem))].Volume = -rng.Float64()
		}
		out, err := Churn(pop, dem, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		from := checkChurnShape(t, dem, out, churnAdded(len(dem), cfg.Add))
		checkFactors(t, dem, out, from, cfg.RescaleLow, cfg.RescaleHigh)
	}
}

// FuzzChurn drives Churn with arbitrary configs and volumes: it must
// either error or return a demand set of the expected shape (fresh
// demands last, survivors an in-order subset of the input, exactly the
// fresh demands when everything is dropped) with only usable volumes,
// and never panic.
func FuzzChurn(f *testing.F) {
	f.Add(int64(1), 0.2, 0.2, 0.5, 2.0, 10.0, 20.0, 30.0)
	f.Add(int64(2), 0.0, 0.0, 0.0, 0.0, math.NaN(), math.Inf(1), -5.0)
	f.Add(int64(3), 1.0, 0.9, 0.1, 4.0, 0.0, 1e300, 1e-300)
	f.Add(int64(4), 0.5, 0.5, 2.0, 1.0, 1.0, 1.0, 1.0) // inverted range → error
	pop := modelPOP(18)
	a, b := pop.Endpoints[0], pop.Endpoints[1]
	f.Fuzz(func(t *testing.T, seed int64, drop, add, lo, hi, v1, v2, v3 float64) {
		dem := []Demand{
			{Src: a, Dst: b, Volume: v1},
			{Src: b, Dst: a, Volume: v2},
			{Src: a, Dst: b, Volume: v3},
		}
		cfg := ChurnConfig{Seed: seed, Drop: drop, Add: add, RescaleLow: lo, RescaleHigh: hi}
		out, err := Churn(pop, dem, cfg)
		if err != nil {
			return
		}
		n := churnAdded(len(dem), add)
		from := checkChurnShape(t, dem, out, n)
		if drop == 1 && len(from) != 0 {
			t.Fatalf("drop 1 kept %d demands", len(from))
		}
	})
}
