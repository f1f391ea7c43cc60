package repro

// PlacementDiff reports how a placement moved between two results —
// the operational answer ("which devices do I physically touch?") to a
// re-solve after the traffic drifted.
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
