package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"repro/internal/active"
	"repro/internal/core"
	"repro/internal/graph"
)

// Key canonicalizes one solve into a cache key: a hash of the problem
// instance (structure, not pointer identity — two independently built
// but identical instances collide on purpose), the solver name, and
// every option that influences the answer. Supported problem kinds are
// the three the registry solves — *core.Instance, *core.MultiInstance,
// active.ProbeSet (or *active.ProbeSet) — plus nil for keys over plain
// parameters (e.g. memoizing instance construction from a config).
//
// Key returns an error for an unknown problem kind; callers then bypass
// the cache rather than risk a false hit.
func Key(solver string, problem any, params ...any) (string, error) {
	h := sha256.New()
	writeString(h, solver)
	switch p := problem.(type) {
	case nil:
	case *core.Instance:
		writeString(h, "instance")
		hashGraph(h, p.G)
		writeInt(h, len(p.Traffics))
		for _, t := range p.Traffics {
			writeInt(h, t.ID)
			hashPath(h, t.Path)
			writeFloat(h, t.Volume)
		}
	case *core.MultiInstance:
		writeString(h, "multi")
		hashGraph(h, p.G)
		writeInt(h, len(p.Traffics))
		for _, t := range p.Traffics {
			writeInt(h, t.ID)
			writeInt(h, int(t.Src))
			writeInt(h, int(t.Dst))
			writeInt(h, len(t.Routes))
			for _, r := range t.Routes {
				hashPath(h, r.Path)
				writeFloat(h, r.Volume)
			}
		}
	case active.ProbeSet:
		hashProbeSet(h, p)
	case *active.ProbeSet:
		hashProbeSet(h, *p)
	default:
		return "", fmt.Errorf("engine: no canonical key for %T", problem)
	}
	for _, v := range params {
		// Options are small scalars/slices; their fmt rendering is
		// canonical enough and keeps the key builder independent of
		// every caller's option struct.
		writeString(h, fmt.Sprintf("|%v", v))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// MustKey is Key for problem kinds known to be supported; it panics on
// an unknown kind (a programming error in the caller).
func MustKey(solver string, problem any, params ...any) string {
	k, err := Key(solver, problem, params...)
	if err != nil {
		panic(err)
	}
	return k
}

func hashProbeSet(h hash.Hash, ps active.ProbeSet) {
	writeString(h, "probeset")
	hashGraph(h, ps.G)
	writeInt(h, len(ps.Candidates))
	for _, c := range ps.Candidates {
		writeInt(h, int(c))
	}
	writeInt(h, len(ps.Probes))
	for _, p := range ps.Probes {
		writeInt(h, int(p.U))
		writeInt(h, int(p.V))
		hashPath(h, p.Path)
	}
}

func hashGraph(h hash.Hash, g *graph.Graph) {
	if g == nil {
		writeInt(h, -1)
		return
	}
	writeInt(h, g.NumNodes())
	writeInt(h, g.NumEdges())
	for _, e := range g.Edges() {
		writeInt(h, int(e.U))
		writeInt(h, int(e.V))
		writeFloat(h, e.Capacity)
		writeFloat(h, e.Weight)
	}
}

func hashPath(h hash.Hash, p graph.Path) {
	// Edges determine Nodes on a routed path; hash both anyway so two
	// paths differing only in orientation cannot collide.
	writeInt(h, len(p.Nodes))
	for _, n := range p.Nodes {
		writeInt(h, int(n))
	}
	writeInt(h, len(p.Edges))
	for _, e := range p.Edges {
		writeInt(h, int(e))
	}
}

func writeInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func writeString(h hash.Hash, s string) {
	writeInt(h, len(s))
	h.Write([]byte(s))
}
