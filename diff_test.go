package repro

import "testing"

// TestResultDiff checks the placement diff on synthetic results.
func TestResultDiff(t *testing.T) {
	prev := &Result{Taps: &TapPlacement{Edges: []EdgeID{1, 2, 3}}}
	cur := &Result{Taps: &TapPlacement{Edges: []EdgeID{2, 3, 5}}}
	d := cur.Diff(prev)
	if len(d.AddedTaps) != 1 || d.AddedTaps[0] != 5 {
		t.Fatalf("added %v, want [5]", d.AddedTaps)
	}
	if len(d.RemovedTaps) != 1 || d.RemovedTaps[0] != 1 {
		t.Fatalf("removed %v, want [1]", d.RemovedTaps)
	}
	if d.Unchanged != 2 || d.Moves() != 2 {
		t.Fatalf("unchanged %d moves %d, want 2 and 2", d.Unchanged, d.Moves())
	}
	// nil prev: everything is new.
	if d := cur.Diff(nil); len(d.AddedTaps) != 3 || d.Unchanged != 0 {
		t.Fatalf("nil-prev diff %+v", d)
	}
}
