package traffic

// Traffic-matrix models beyond §4.4's preferred-pair draw: a gravity
// model (demand proportional to endpoint masses, the standard ISP
// traffic-matrix estimator), a heavy-tailed Zipf model (a few elephant
// pairs dominate, as Bhattacharyya et al. [2] observed), and a churn
// mutator (add/remove traffics, volume rescale) for dynamic-resampling
// scenarios. Every model takes an explicit seed and draws all
// randomness from one private rand.Rand, so instances are reproducible
// regardless of concurrency.

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/topology"
)

// GravityConfig parameterizes Gravity.
type GravityConfig struct {
	// Seed drives the endpoint-mass draw.
	Seed int64
	// MeanVolume is the average demand volume (default 10, matching
	// Config.BaseVolume's midpoint).
	MeanVolume float64
	// Spread is the σ of the log-normal endpoint masses; larger spreads
	// concentrate volume on fewer endpoints. Default 1.
	Spread float64
}

func (c GravityConfig) withDefaults() GravityConfig {
	if c.MeanVolume == 0 {
		c.MeanVolume = 10
	}
	if c.Spread == 0 {
		c.Spread = 1
	}
	return c
}

// Gravity draws one demand per ordered endpoint pair with volume
// proportional to the product of log-normal endpoint masses — the
// gravity model operators fit to real traffic matrices: big customers
// exchange disproportionately more traffic.
func Gravity(pop *topology.POP, cfg GravityConfig) []Demand {
	cfg = cfg.withDefaults()
	eps := pop.Endpoints
	rng := rand.New(rand.NewSource(cfg.Seed))
	mass := make([]float64, len(eps))
	var total float64
	for i := range eps {
		mass[i] = math.Exp(cfg.Spread * rng.NormFloat64())
	}
	for i := range eps {
		for j := range eps {
			if i != j {
				total += mass[i] * mass[j]
			}
		}
	}
	if total == 0 {
		return nil
	}
	scale := cfg.MeanVolume * float64(len(eps)*(len(eps)-1)) / total
	var out []Demand
	for i, s := range eps {
		for j, d := range eps {
			if i == j {
				continue
			}
			out = append(out, Demand{Src: s, Dst: d, Volume: mass[i] * mass[j] * scale})
		}
	}
	return out
}

// ZipfConfig parameterizes Zipf.
type ZipfConfig struct {
	// Seed drives the rank assignment.
	Seed int64
	// MaxVolume is the volume of the rank-1 (heaviest) pair; default
	// 200 (the §4.4 hot-pair volume BaseVolume·HotFactor).
	MaxVolume float64
	// Exponent is the Zipf decay exponent s in v ∝ rank^−s; default 1.1.
	Exponent float64
}

func (c ZipfConfig) withDefaults() ZipfConfig {
	if c.MaxVolume == 0 {
		c.MaxVolume = 200
	}
	if c.Exponent == 0 {
		c.Exponent = 1.1
	}
	return c
}

// Zipf draws one demand per ordered endpoint pair with Zipf-distributed
// volumes: pairs are ranked by a random permutation and the rank-r pair
// carries MaxVolume·r^−s — the heavy-tailed elephants-and-mice mix
// observed in POP traffic.
func Zipf(pop *topology.POP, cfg ZipfConfig) []Demand {
	cfg = cfg.withDefaults()
	eps := pop.Endpoints
	n := len(eps)
	if n < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(n * (n - 1))
	out := make([]Demand, 0, n*(n-1))
	pair := 0
	for i, s := range eps {
		for j, d := range eps {
			if i == j {
				continue
			}
			rank := float64(perm[pair] + 1)
			pair++
			out = append(out, Demand{Src: s, Dst: d, Volume: cfg.MaxVolume / math.Pow(rank, cfg.Exponent)})
		}
	}
	return out
}

// ChurnConfig parameterizes Churn.
type ChurnConfig struct {
	// Seed drives every churn decision.
	Seed int64
	// Drop is the fraction of demands removed (default 0.2).
	Drop float64
	// Add is the fraction (of the original count) of fresh demands
	// created between random endpoint pairs (default 0.2).
	Add float64
	// RescaleLow/RescaleHigh bound the per-demand volume rescale factor
	// (defaults 0.5 and 2 — capacity upgrades and degradations).
	RescaleLow, RescaleHigh float64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Drop == 0 {
		c.Drop = 0.2
	}
	if c.Add == 0 {
		c.Add = 0.2
	}
	if c.RescaleLow == 0 {
		c.RescaleLow = 0.5
	}
	if c.RescaleHigh == 0 {
		c.RescaleHigh = 2
	}
	return c
}

// ChurnDelta records the mutation Churn applied, so callers (and the
// churn tests) can assert the delta is bounded: how many demands were
// dropped and added, and the observed rescale-factor range over the
// surviving rows.
type ChurnDelta struct {
	// Dropped and Added count removed and fresh demands.
	Dropped int
	Added   int
	// Rescaled counts demands whose volume was multiplied by a factor;
	// MinFactor and MaxFactor bound the factors actually drawn (both 0
	// when Rescaled is 0). Always within [cfg.RescaleLow,
	// cfg.RescaleHigh].
	Rescaled  int
	MinFactor float64
	MaxFactor float64
	// Clamped counts output volumes the sanitation guard replaced
	// because they came out non-positive or non-finite (possible only
	// when the input already carried garbage volumes).
	Clamped int
}

// Churn mutates a demand set the way a live POP drifts between
// re-optimizations (§5.4's dynamic scenarios): a fraction of traffics
// disappears, fresh traffics appear between random endpoint pairs (at
// the surviving demands' mean volume), and every volume is rescaled by
// a random factor. The input slice is not modified. It errors when the
// POP has fewer than 2 endpoints and demands must be added.
func Churn(pop *topology.POP, demands []Demand, cfg ChurnConfig) ([]Demand, error) {
	out, _, err := ChurnWithDelta(pop, demands, cfg)
	return out, err
}

// ChurnWithDelta is Churn plus the applied-mutation record. The output
// demands never carry negative, zero, NaN or Inf volumes, even when
// the input does: such volumes are clamped to a small positive
// fallback (and counted in ChurnDelta.Clamped).
func ChurnWithDelta(pop *topology.POP, demands []Demand, cfg ChurnConfig) ([]Demand, ChurnDelta, error) {
	cfg = cfg.withDefaults()
	var delta ChurnDelta
	if cfg.RescaleLow <= 0 || cfg.RescaleHigh < cfg.RescaleLow || math.IsInf(cfg.RescaleHigh, 0) || math.IsNaN(cfg.RescaleLow) || math.IsNaN(cfg.RescaleHigh) {
		return nil, delta, fmt.Errorf("traffic: bad rescale range [%g, %g]", cfg.RescaleLow, cfg.RescaleHigh)
	}
	if !(cfg.Drop >= 0 && cfg.Drop <= 1) {
		return nil, delta, fmt.Errorf("traffic: drop fraction %g outside [0, 1]", cfg.Drop)
	}
	// A growth factor above 1000× is a config bug, not churn; the bound
	// also keeps hostile fractions from demanding absurd allocations.
	if !(cfg.Add >= 0 && cfg.Add <= 1000) {
		return nil, delta, fmt.Errorf("traffic: add fraction %g outside [0, 1000]", cfg.Add)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []Demand
	var mean float64
	finite := 0
	for _, d := range demands {
		if rng.Float64() < cfg.Drop {
			delta.Dropped++
			continue
		}
		out = append(out, d)
		// The mean seeds fresh-demand volumes and the clamp fallback:
		// average only the usable inputs so one NaN or Inf row cannot
		// poison every added demand.
		if d.Volume > 0 && !math.IsInf(d.Volume, 1) {
			mean += d.Volume
			finite++
		}
	}
	if finite > 0 {
		mean /= float64(finite)
	} else {
		mean = 10
	}
	add := int(float64(len(demands))*cfg.Add + 0.5)
	eps := pop.Endpoints
	if add > 0 && len(eps) < 2 {
		return nil, delta, fmt.Errorf("traffic: churn needs ≥2 endpoints to add demands, got %d", len(eps))
	}
	for i := 0; i < add; i++ {
		s := eps[rng.Intn(len(eps))]
		d := eps[rng.Intn(len(eps))]
		for s == d {
			d = eps[rng.Intn(len(eps))]
		}
		out = append(out, Demand{Src: s, Dst: d, Volume: mean * (0.5 + rng.Float64())})
	}
	delta.Added = add
	for i := range out {
		f := cfg.RescaleLow + rng.Float64()*(cfg.RescaleHigh-cfg.RescaleLow)
		out[i].Volume *= f
		delta.Rescaled++
		if delta.Rescaled == 1 {
			delta.MinFactor, delta.MaxFactor = f, f
		} else {
			if f < delta.MinFactor {
				delta.MinFactor = f
			}
			if f > delta.MaxFactor {
				delta.MaxFactor = f
			}
		}
	}
	// Guard against unusable volumes (core.Validate rejects them). The
	// <= 0 comparison alone would wave NaN (every comparison false) and
	// +Inf straight through, so test finiteness explicitly.
	for i := range out {
		if v := out[i].Volume; !(v > 0) || math.IsInf(v, 0) || math.IsNaN(v) {
			out[i].Volume = mean / 100
			delta.Clamped++
		}
	}
	return out, delta, nil
}

// Aggregate merges duplicate (src, dst) demands by summing their
// volumes; Churn can create parallel demands and single-routed
// instances are cleaner with one traffic per pair.
func Aggregate(demands []Demand) []Demand {
	type key struct{ s, d graph.NodeID }
	idx := make(map[key]int, len(demands))
	var out []Demand
	for _, dm := range demands {
		k := key{dm.Src, dm.Dst}
		if i, ok := idx[k]; ok {
			out[i].Volume += dm.Volume
			continue
		}
		idx[k] = len(out)
		out = append(out, dm)
	}
	return out
}
