package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 50 * ms},     // overlaps a by 10
		{Name: "c", Parent: 1, Start: 15 * ms, End: 20 * ms},     // nested in a
		{Name: "d", Parent: 0, Start: 90 * ms, End: 120 * ms},    // runs past its parent
		{Name: "e", Parent: 0, Start: 60 * ms, End: 60 * ms},     // empty
		{Name: "op", Parent: -1, Start: 200 * ms, End: 210 * ms}, // no children
	}
	want := []time.Duration{
		100*ms - 40*ms - 10*ms, // children cover [10,50) and [90,100)
		30*ms - 5*ms,
		20 * ms,
		5 * ms,
		30 * ms,
		0,
		10 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}

	layers := byLayer(spans)
	if l := layers["op"]; l.Calls != 2 || l.Self != 60*ms {
		t.Errorf("op layer = %+v, want 2 calls, 60ms self", l)
	}
	if got := layers["op"].meanMS(); got != 30 {
		t.Errorf("op mean self = %g ms, want 30", got)
	}
	// 60 of the ops' 110 ms wall is uncovered by any child.
	if got, want := unattributed(spans), 60.0/110; got != want {
		t.Errorf("unattributed = %g, want %g", got, want)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	op := tr.begin("op", 7)
	inner := tr.begin("layer", 7)
	tr.end(inner)
	tr.end(op)
	root := tr.begin("check", 7)
	tr.end(root)
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Errorf("parents = %d %d %d, want -1 0 -1", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Op != 7 {
			t.Errorf("bad span %+v", s)
		}
	}

	var off *tracer
	if id := off.begin("op", 1); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1)
}
