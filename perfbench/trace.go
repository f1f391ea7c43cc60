package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string
	Parent int // index of the enclosing span, -1 for a root
	Op     int // op id, -1 outside ops (set-up)
	Track  int // client connection for placementd, 0 otherwise
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so an untraced run pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// id for end.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span whose boundaries were stamped elsewhere (the
// placementd client stamps them on its own goroutines).
func (t *tracer) add(name string, parent, op, track int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Track: track,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of it that its
// children cover; overlapping children count once.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := time.Duration(0), s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerTime is the self time of every span of one name.
type layerTime struct {
	Calls int
	Self  time.Duration
}

// meanMS is the mean self time per call in milliseconds, 0 when the
// layer was never called.
func (l layerTime) meanMS() float64 {
	if l.Calls == 0 {
		return 0
	}
	return ms(l.Self) / float64(l.Calls)
}

// byLayer sums self times per span name.
func byLayer(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := map[string]layerTime{}
	for i, s := range spans {
		l := out[s.Name]
		l.Calls++
		l.Self += self[i]
		out[s.Name] = l
	}
	return out
}

// unattributed is the share of the op spans' wall time that no child
// span covers: how much of an op the layer spans fail to explain.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	var wall, rest time.Duration
	for i, s := range spans {
		if s.Name == "op" {
			wall += s.End - s.Start
			rest += self[i]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(rest) / float64(wall)
}

// layerMetrics assembles the per-layer metrics of a traced run: the mean
// self time of each span name, the effort counters divided by scale,
// their ratios, and the trace's own overhead (traced over untraced op
// time) and coverage.
func layerMetrics(spans []span, c counters, scale float64, plain, traced []float64) map[string]float64 {
	m := map[string]float64{}
	for name, l := range byLayer(spans) {
		m[name+"_ms"] = l.meanMS()
	}
	for name, v := range c {
		m[name] = v / scale
	}
	m["lp.pivots_per_ms"] = ratio(c["lp.pivots"], c["lp.busy_ms"])
	m["mip.warm_start_frac"] = ratio(c["mip.warm_starts"], c["mip.nodes"])
	m["cover.capped_frac"] = ratio(c["cover.capped"], c["cover.solves"])
	m["trace.overhead_frac"] = sum(traced)/sum(plain) - 1
	m["trace.unattributed_frac"] = unattributed(spans)
	m["trace.spans"] = float64(len(spans))
	return m
}

// writeTrace writes the spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open directly; info rides along as
// metadata.
func writeTrace(path string, spans []span, info any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts: us(s.Start), Dur: us(s.End - s.Start),
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "self_us": us(self[i])},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": info})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
