package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder are the percentiles a timing may report beyond its median.
var tailLadder = []int{90, 95, 99}

// tailPercentile returns the highest ladder percentile that still has at
// least ten of the n samples beyond it; ok is false when even the lowest
// rung does not (n < 100).
func tailPercentile(n int) (pct int, ok bool) {
	for _, p := range tailLadder {
		if n*(100-p)/100 < 10 {
			break
		}
		pct, ok = p, true
	}
	return pct, ok
}

// quantile returns the q-quantile (0..1) of sorted by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// summary is what every timing reports: median, quartiles, the highest
// percentile the sample count supports, and the count itself.
type summary struct {
	N              int
	Min, Sum       float64
	Median, Q1, Q3 float64
	TailPct        int // 0: too few samples for any tail
	Tail           float64
}

// summarize describes samples.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Min: quantile(s, 0), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	for _, x := range s {
		out.Sum += x
	}
	if p, ok := tailPercentile(len(s)); ok {
		out.TailPct, out.Tail = p, quantile(s, float64(p)/100)
	}
	return out
}

func (s summary) String() string {
	tail := "tail n/a"
	if s.TailPct > 0 {
		tail = fmt.Sprintf("p%d %.4g", s.TailPct, s.Tail)
	}
	return fmt.Sprintf("min %.4g  q1 %.4g  median %.4g  q3 %.4g  %s  n=%d", s.Min, s.Q1, s.Median, s.Q3, tail, s.N)
}

// dueLatency is the open-loop latency rule: a request is timed from the
// instant it was due, not from when the generator got round to sending it,
// so a stall is charged to every request it delayed. lag is how late the
// generator itself ran. All arguments are nanoseconds on one clock.
func dueLatency(due, sent, done int64) (latency, lag int64) {
	lag = sent - due
	if lag < 0 {
		lag = 0
	}
	return done - due, lag
}

// dueTime is when request i of an open-loop segment starting at t0 with the
// given per-second rate is due.
func dueTime(t0 int64, i int, rate float64) int64 {
	return t0 + int64(float64(i)*1e9/rate)
}
