package main

import (
	"errors"
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, ok := tailPercentile(seq(10)); ok {
		t.Fatal("10 samples: no percentile has ten samples beyond it")
	}
	tl, ok := tailPercentile(seq(11))
	if !ok || tl.Value != 1 || tl.Beyond != 10 || math.Abs(tl.Pct-100.0/11) > 1e-9 {
		t.Fatalf("11 samples: got %+v ok=%v, want the minimum at p9.09 with 10 beyond", tl, ok)
	}
	tl, ok = tailPercentile(seq(100))
	if !ok || tl.Value != 90 || tl.Pct != 90 || tl.Beyond != 10 || tl.N != 100 {
		t.Fatalf("100 samples: got %+v, want p90 = 90 with 10 beyond", tl)
	}
	tl, _ = tailPercentile(seq(1000))
	if tl.Value != 990 || tl.Pct != 99 {
		t.Fatalf("1000 samples: got %+v, want p99 = 990", tl)
	}
}

func TestTallyCountsEachFailedOperationOnce(t *testing.T) {
	var tl tally
	tl.op(nil)
	tl.op(nil, "")
	tl.op(errors.New("boom"))
	tl.op(nil, "wrong makespan", "wrong messages")
	tl.op(errors.New("boom"), "also a failed check")
	if tl.Attempted != 5 || tl.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.Attempted, tl.Failed)
	}
	if got := tl.failedRatio(); got != 0.6 {
		t.Fatalf("failed ratio %v, want 0.6", got)
	}
	var other tally
	other.op(nil)
	tl.add(other)
	if tl.Attempted != 6 || tl.Failed != 3 {
		t.Fatalf("after add: attempted %d failed %d, want 6 and 3", tl.Attempted, tl.Failed)
	}
	if !math.IsNaN((tally{}).failedRatio()) {
		t.Fatal("an empty tally has no failed ratio")
	}
}
