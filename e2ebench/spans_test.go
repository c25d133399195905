package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "study", Parent: -1, Start: 0, End: 100},
		{Name: "cpu.exec", Parent: 0, Start: 10, End: 30},
		// Overlaps the first child: the union [10,50] counts once.
		{Name: "cpu.capture", Parent: 0, Start: 20, End: 50},
		// Sticks out of the parent: only [90,100] is covered.
		{Name: "core.correct", Parent: 0, Start: 90, End: 120},
		// A grandchild reduces its parent's self time, not the root's.
		{Name: "trace.finish", Parent: 2, Start: 40, End: 45},
	}
	self := selfTimes(spans)
	want := map[string]float64{"study": 50, "cpu.exec": 20, "cpu.capture": 25, "core.correct": 30, "trace.finish": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, self[name], w)
		}
	}
	layers := layerSelfTimes(spans)
	if layers["bench"] != 50 || layers["cpu"] != 45 || layers["core"] != 30 || layers["trace"] != 5 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestTracerRecordsNestingOnlyWhenOn(t *testing.T) {
	tr := newTracer(true, time.Now())
	tr.id = 3
	_, _ = tr.timed("study", func() error {
		_, _ = tr.timed("cpu.exec", func() error { return nil })
		_, err := tr.timed("core.correct", func() error { return nil })
		return err
	})
	if len(tr.spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.spans))
	}
	for i, wantParent := range []int{-1, 0, 0} {
		s := tr.spans[i]
		if s.Parent != wantParent || s.ID != 3 || s.End < s.Start {
			t.Errorf("span %d = %+v, want parent %d, id 3", i, s, wantParent)
		}
	}
	off := newTracer(false, time.Now())
	d, _ := off.timed("study", func() error { time.Sleep(time.Millisecond); return nil })
	if len(off.spans) != 0 || d < time.Millisecond {
		t.Fatalf("untraced: %d spans, duration %v; want none and a measured duration", len(off.spans), d)
	}
}

func TestChromeTraceIsCompleteEvents(t *testing.T) {
	var buf bytes.Buffer
	spans := []Span{{Name: "study", ID: 1, Parent: -1, Start: 5, End: 15}, {Name: "cpu.exec", ID: 1, Parent: 0, Start: 6, End: 8}}
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Ts, Dur       float64
			Tid           int
			Args          map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Cat != "cpu" || ev.Ts != 6 || ev.Dur != 2 || ev.Tid != 1 || ev.Args["parent"] != "study" {
		t.Fatalf("event %+v", ev)
	}
}
