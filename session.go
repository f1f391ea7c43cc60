package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cover"
	"repro/internal/lp"
)

// This file implements session re-optimization: a Session re-solves a
// mutated problem warm, seeding the exact cover search's root LP with
// the previous solve's saved basis instead of starting cold, while
// guaranteeing the answer is byte-identical to a cold solve of the
// mutated instance (the resolve==cold metamorphic lock in
// internal/scenariotest).
//
// Whether the basis survives a mutation is governed by the structural
// Delta between the previous and the next problem:
//
//	class       LP basis   rationale
//	Unchanged      ✓       everything still describes the instance
//	Rescale        ✓       same traffic rows → same LP shape; the dual
//	                       simplex revalidates the basis and falls back
//	                       cold on rejection
//	Traffic        –       rows added/removed change the LP shape:
//	                       resolve cold
//	Topology       –       edge IDs may be reassigned: nothing from the
//	                       old instance names the same objects
//	Unknown        –       unsupported problem kind, solve cold
//
// Soundness never depends on this table: the LP shape-checks and
// dual-repairs the basis it is seeded with. The table only decides
// when shipping it is worthwhile.

// DeltaClass classifies the structural mutation between two problems.
type DeltaClass int

const (
	// DeltaUnknown marks a pair of problems the differ could not relate
	// (unsupported kind, or nil): resolve cold.
	DeltaUnknown DeltaClass = iota
	// DeltaUnchanged: structurally identical problems.
	DeltaUnchanged
	// DeltaRescale: same topology, same traffic rows (IDs and paths),
	// only volumes changed — the bounded delta traffic.Churn's rescale
	// step performs.
	DeltaRescale
	// DeltaTraffic: same topology, traffic rows added or removed (and
	// possibly rescaled) — churn's drop/add steps.
	DeltaTraffic
	// DeltaTopology: the graph itself changed (link down, node added).
	DeltaTopology
)

func (c DeltaClass) String() string {
	switch c {
	case DeltaUnchanged:
		return "unchanged"
	case DeltaRescale:
		return "rescale"
	case DeltaTraffic:
		return "traffic"
	case DeltaTopology:
		return "topology"
	}
	return "unknown"
}

// Delta is the structural diff between two problems, computed by
// ComputeDelta. It drives the artifact validity rules above and gives
// tests something to assert boundedness on.
type Delta struct {
	Class DeltaClass
	// RowsAdded and RowsRemoved count traffic rows present in only one
	// of the two instances (matched by ID; a row whose path changed
	// counts as removed+added, since its cover column is a different
	// object).
	RowsAdded   int
	RowsRemoved int
	// Rescaled counts surviving rows whose volume changed; MinFactor
	// and MaxFactor bound the ratios new/old over those rows (both 1
	// when Rescaled is 0).
	Rescaled  int
	MinFactor float64
	MaxFactor float64
}

// ComputeDelta structurally diffs two problems. Only *Instance pairs
// are classified; anything else is DeltaUnknown (the session then
// simply resolves cold, which is always sound).
func ComputeDelta(prev, next Problem) Delta {
	a, okA := prev.(*Instance)
	b, okB := next.(*Instance)
	if !okA || !okB || a == nil || b == nil {
		return Delta{Class: DeltaUnknown, MinFactor: 1, MaxFactor: 1}
	}
	if !sameGraph(a.G, b.G) {
		return Delta{Class: DeltaTopology, MinFactor: 1, MaxFactor: 1}
	}
	d := Delta{MinFactor: 1, MaxFactor: 1}
	prevRows := make(map[int]*Traffic, len(a.Traffics))
	for i := range a.Traffics {
		prevRows[a.Traffics[i].ID] = &a.Traffics[i]
	}
	seen := make(map[int]bool, len(b.Traffics))
	for i := range b.Traffics {
		t := &b.Traffics[i]
		p, ok := prevRows[t.ID]
		if !ok || !samePath(p.Path, t.Path) {
			d.RowsAdded++
			continue
		}
		seen[t.ID] = true
		if p.Volume != t.Volume {
			d.Rescaled++
			if p.Volume > 0 {
				f := t.Volume / p.Volume
				if d.Rescaled == 1 {
					d.MinFactor, d.MaxFactor = f, f
				} else {
					if f < d.MinFactor {
						d.MinFactor = f
					}
					if f > d.MaxFactor {
						d.MaxFactor = f
					}
				}
			}
		}
	}
	for id := range prevRows {
		if !seen[id] {
			d.RowsRemoved++
		}
	}
	switch {
	case d.RowsAdded > 0 || d.RowsRemoved > 0:
		d.Class = DeltaTraffic
	case d.Rescaled > 0:
		d.Class = DeltaRescale
	default:
		d.Class = DeltaUnchanged
	}
	return d
}

func sameGraph(a, b *Graph) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	be := b.Edges()
	for i, e := range a.Edges() {
		if e.U != be[i].U || e.V != be[i].V || e.Capacity != be[i].Capacity || e.Weight != be[i].Weight {
			return false
		}
	}
	return true
}

func samePath(a, b Path) bool {
	if len(a.Edges) != len(b.Edges) {
		return false
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			return false
		}
	}
	return true
}

// PlacementDiff reports how a placement moved between two results —
// the operational answer ("which devices do I physically touch?") a
// churn-step re-solve exists to produce.
type PlacementDiff struct {
	// AddedTaps and RemovedTaps are tap links present in only one of
	// the two placements (sorted).
	AddedTaps   []EdgeID
	RemovedTaps []EdgeID
	// AddedBeacons and RemovedBeacons are the beacon equivalents.
	AddedBeacons   []NodeID
	RemovedBeacons []NodeID
	// Unchanged counts devices common to both placements.
	Unchanged int
}

// Moves returns the total number of device changes in the diff.
func (d PlacementDiff) Moves() int {
	return len(d.AddedTaps) + len(d.RemovedTaps) + len(d.AddedBeacons) + len(d.RemovedBeacons)
}

// Diff compares this result's placement against a previous one and
// returns the devices added and removed. A nil prev reports every
// device as added. Sampling placements diff on their device edges.
func (r *Result) Diff(prev *Result) PlacementDiff {
	var d PlacementDiff
	var prevTaps []EdgeID
	var prevBeacons []NodeID
	if prev != nil {
		if prev.Taps != nil {
			prevTaps = prev.Taps.Edges
		}
		if prev.Sampling != nil {
			prevTaps = prev.Sampling.Edges
		}
		if prev.Beacons != nil {
			prevBeacons = prev.Beacons.Beacons
		}
	}
	var curTaps []EdgeID
	if r.Taps != nil {
		curTaps = r.Taps.Edges
	}
	if r.Sampling != nil {
		curTaps = r.Sampling.Edges
	}
	var curBeacons []NodeID
	if r.Beacons != nil {
		curBeacons = r.Beacons.Beacons
	}
	addE, remE, sameE := diffIDs(prevTaps, curTaps)
	d.AddedTaps, d.RemovedTaps = addE, remE
	addN, remN, sameN := diffIDs(prevBeacons, curBeacons)
	d.AddedBeacons, d.RemovedBeacons = addN, remN
	d.Unchanged = sameE + sameN
	return d
}

// diffIDs set-diffs two sorted-comparable ID slices, returning
// (in cur only, in prev only, in both).
func diffIDs[T EdgeID | NodeID](prev, cur []T) (added, removed []T, unchanged int) {
	inPrev := make(map[T]bool, len(prev))
	for _, e := range prev {
		inPrev[e] = true
	}
	inCur := make(map[T]bool, len(cur))
	for _, e := range cur {
		inCur[e] = true
	}
	for _, e := range cur {
		if inPrev[e] {
			unchanged++
		} else {
			added = append(added, e)
		}
	}
	for _, e := range prev {
		if !inCur[e] {
			removed = append(removed, e)
		}
	}
	return added, removed, unchanged
}

// Session re-solves a drifting problem warm. The first Solve runs cold
// and captures the root LP basis; every subsequent Resolve diffs the
// new problem against the previous one, ships the basis when the Delta
// class keeps it valid, and re-captures from the new solve. Answers
// are byte-identical to cold solves of the same problem — warmth only
// changes how fast the proof closes (Stats counters show the
// difference; scenariotest invariant 6 locks the equality).
//
// A Session is safe for concurrent use but serializes its solves: the
// artifact chain is a sequence, not a pool. Results are never shared
// with a cache — a warm result carries different effort counters than a
// cold one and must not masquerade as it — so sessions trade
// memoization for warmth.
type Session struct {
	mu     sync.Mutex
	solver Solver
	opts   []Option

	prevProblem Problem
	prevResult  *Result
	coverBasis  *lp.Basis
	lastDelta   Delta
	resolves    int
}

// NewSession builds a session around a registered solver. The options
// apply to every solve in the session (per-solve options can be added
// on Solve/Resolve and take precedence).
func NewSession(solver string, opts ...Option) (*Session, error) {
	s, err := LookupSolver(solver)
	if err != nil {
		return nil, err
	}
	return &Session{solver: s, opts: opts}, nil
}

// Solve runs a cold solve and (re)starts the artifact chain from its
// result. Use it for the first problem of a session or to hard-reset
// after Resolve reported an unusable delta.
func (s *Session) Solve(ctx context.Context, problem Problem, opts ...Option) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solveLocked(ctx, problem, nil, Delta{Class: DeltaUnknown, MinFactor: 1, MaxFactor: 1}, opts)
}

// Resolve re-solves a mutated problem warm: it computes the structural
// Delta against the session's previous problem, injects the saved basis
// when that class keeps it valid, and solves. The result is
// byte-identical to a cold Solve of the same problem;
// r.Diff(session.Previous()) — taken before Resolve updates the chain —
// or the convenience LastDiff gives the device moves.
func (s *Session) Resolve(ctx context.Context, problem Problem, opts ...Option) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prevProblem == nil {
		return s.solveLocked(ctx, problem, nil, Delta{Class: DeltaUnknown, MinFactor: 1, MaxFactor: 1}, opts)
	}
	delta := ComputeDelta(s.prevProblem, problem)
	var warm *cover.Warm
	if (delta.Class == DeltaUnchanged || delta.Class == DeltaRescale) && s.coverBasis != nil {
		warm = &cover.Warm{Basis: s.coverBasis}
	}
	return s.solveLocked(ctx, problem, warm, delta, opts)
}

// Previous returns the session's previous result (nil before the first
// solve). Treat it as read-only.
func (s *Session) Previous() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prevResult
}

// LastDelta returns the Delta of the most recent Resolve (class
// DeltaUnknown for a cold Solve).
func (s *Session) LastDelta() Delta {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastDelta
}

// Resolves returns how many solves the session has run.
func (s *Session) Resolves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolves
}

func (s *Session) solveLocked(ctx context.Context, problem Problem, warm *cover.Warm, delta Delta, opts []Option) (*Result, error) {
	capture := &cover.Capture{}
	all := make([]Option, 0, len(s.opts)+len(opts)+1)
	all = append(all, s.opts...)
	all = append(all, opts...)
	all = append(all, func(o *Options) {
		o.warmCover = warm
		o.captureCover = capture
	})
	res, err := s.solver.Solve(ctx, problem, all...)
	if err != nil {
		return nil, fmt.Errorf("session resolve %d (%s delta): %w", s.resolves, delta.Class, err)
	}
	s.lastDelta = delta
	s.resolves++
	s.prevProblem = problem
	s.prevResult = res
	if res.Degraded || ctx.Err() != nil {
		// A degraded or deadline-cut answer must not seed the next warm
		// solve's artifact chain: its incumbent is clock-dependent. The
		// result itself is returned (with provenance intact), but the
		// chain restarts cold.
		s.prevProblem, s.prevResult, s.coverBasis = nil, nil, nil
		return res, nil
	}
	if capture.Basis != nil {
		s.coverBasis = capture.Basis
	} else if warm == nil {
		// Cold solve that never ran the LP: no basis to carry.
		s.coverBasis = nil
	}
	return res, nil
}
