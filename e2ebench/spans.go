package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself records nothing). Spans of one study, stream pass
// or daemon request share an ID.
type Span struct {
	Name string `json:"name"`
	ID   int    `json:"id"`
	// Parent indexes the enclosing span in the same list, -1 for a root.
	Parent int `json:"parent"`
	// Start and End are microseconds since the run began.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// layer is the module a span's name belongs to: the part before the first
// dot ("cpu.exec" → "cpu"); spans without one are the benchmark's own.
func (s Span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer times layer calls. Durations are always measured; spans are kept
// (in memory, written out at the end) only when on is set.
type tracer struct {
	on     bool
	origin time.Time
	// id is the unit (study, pass, request) new spans belong to.
	id    int
	spans []Span
	stack []int
}

func newTracer(on bool, origin time.Time) *tracer {
	return &tracer{on: on, origin: origin}
}

func (t *tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.origin).Nanoseconds()) / 1e3
}

// timed runs f inside a span named name and returns its duration.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	idx := -1
	start := time.Now()
	if t.on {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		idx = len(t.spans)
		t.spans = append(t.spans, Span{Name: name, ID: t.id, Parent: parent, Start: t.since(start)})
		t.stack = append(t.stack, idx)
	}
	err := f()
	end := time.Now()
	if t.on {
		t.spans[idx].End = t.since(end)
		t.stack = t.stack[:len(t.stack)-1]
	}
	return end.Sub(start), err
}

// selfTimes returns each span's duration minus the part of its interval that
// its direct children cover (children clipped to the parent, overlaps
// counted once), summed per span name, in microseconds.
func selfTimes(spans []Span) map[string]float64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent Span, kids []Span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelfTimes folds per-name self times into per-layer totals.
func layerSelfTimes(spans []Span) map[string]float64 {
	out := make(map[string]float64)
	for name, us := range selfTimes(spans) {
		out[Span{Name: name}.layer()] += us
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events), which Perfetto and chrome://tracing load. Each unit ID gets its
// own track, so a study's phases nest under it by time.
func writeChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Cat: s.layer(), Ph: "X", Ts: s.Start, Dur: s.dur(),
			Pid: 1, Tid: s.ID, Args: map[string]any{"id": s.ID, "parent": parent},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
