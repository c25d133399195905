package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geoMean is the geometric mean of positive samples, 0 for none.
func geoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a latency percentile reported together with its sample count.
type tail struct {
	// Pct is the percentile (0–100) of the reported value.
	Pct float64
	// Value is the sample at that percentile.
	Value float64
	// N is the number of samples; Beyond is how many of them lie strictly
	// above the reported one in rank.
	N, Beyond int
}

// minBeyond is how many samples must lie beyond a reported tail percentile,
// so that the tail rests on more than a handful of outliers.
const minBeyond = 10

// tailPercentile reports the highest percentile of xs that still has at
// least minBeyond samples ranked above it: with n sorted samples that is the
// sample at rank n-minBeyond (1-based), i.e. percentile 100·(n-10)/n. ok is
// false when there are too few samples for any such percentile.
func tailPercentile(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	rank := n - minBeyond // 1-based rank of the reported sample
	return tail{
		Pct:    100 * float64(rank) / float64(n),
		Value:  s[rank-1],
		N:      n,
		Beyond: n - rank,
	}, true
}

// tally counts the operations a run attempted and how many of them failed,
// either by returning an error or by failing an output check. Each operation
// counts once, however many of its checks failed.
type tally struct {
	Attempted int
	Failed    int
	// Reasons keeps the first few failure messages for the report.
	Reasons []string
}

const maxReasons = 20

// op records one attempted operation; it failed when err is non-nil or any
// check message is non-empty.
func (t *tally) op(err error, checks ...string) {
	t.Attempted++
	var why []string
	if err != nil {
		why = append(why, err.Error())
	}
	for _, c := range checks {
		if c != "" {
			why = append(why, c)
		}
	}
	if len(why) == 0 {
		return
	}
	t.Failed++
	for _, w := range why {
		if len(t.Reasons) < maxReasons {
			t.Reasons = append(t.Reasons, w)
		}
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, w := range o.Reasons {
		if len(t.Reasons) < maxReasons {
			t.Reasons = append(t.Reasons, w)
		}
	}
}

// failedRatio is failed operations over attempted ones; NaN when nothing was
// attempted, which the caller reports as a failed run.
func (t tally) failedRatio() float64 {
	if t.Attempted == 0 {
		return math.NaN()
	}
	return float64(t.Failed) / float64(t.Attempted)
}
