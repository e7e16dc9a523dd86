package main

import (
	"math"
	"slices"
	"sort"
	"time"
)

// sample is one timing distribution, in nanoseconds.
type sample []int64

func (s *sample) add(d time.Duration) { *s = append(*s, int64(d)) }

// sorted returns the sample in ascending order; it sorts in place.
func (s sample) sorted() sample {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile reads the q-quantile of an ascending sample (nearest rank
// below); 0 for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[int(q*float64(len(s)-1))])
}

// series is a timing distribution that remembers when each value was
// taken (an arrival index or an offset), so it can be cut into windows.
type series []timed

type timed struct{ at, d int64 }

func (s *series) add(at int64, d time.Duration) { *s = append(*s, timed{at, int64(d)}) }

// all returns the values as one ascending sample.
func (s series) all() sample {
	out := make(sample, len(s))
	for i, t := range s {
		out[i] = t.d
	}
	return out.sorted()
}

// steadyWindows is how many windows a phase is cut into.
const steadyWindows = 8

// windows cuts the series, in the order the values were taken, into up
// to steadyWindows runs of equal length with at least three values each.
func (s series) windows() []series {
	if len(s) == 0 {
		return nil
	}
	sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	w := max(1, min(steadyWindows, len(s)/3))
	out := make([]series, 0, w)
	for i := 0; i < w; i++ {
		out = append(out, s[i*len(s)/w:(i+1)*len(s)/w])
	}
	return out
}

// steady estimates the q-quantile of the series as the sandbox shows it
// when it is quiet: the quantile is taken in each window of the phase,
// and the first quartile of the windows is reported. A neighbour's burst
// or a slow fsync spell only ever adds time, and only to the windows it
// overlaps, so the lower windows are the steadiest from run to run; a
// change in the program moves every window.
func (s series) steady(q float64) float64 {
	var qs []float64
	for _, w := range s.windows() {
		qs = append(qs, w.all().quantile(q))
	}
	return firstQuartile(qs)
}

// steadyTail is steady at the highest of p99 and p90 that has ten
// samples beyond it in every window; it says which.
func (s series) steadyTail() (float64, float64) {
	q := 0.90
	if w := s.windows(); len(w) > 0 && beyond(len(w[0]), 0.99) >= 10 {
		q = 0.99
	}
	return s.steady(q), q
}

// steadyRate is the throughput of a closed-loop phase, per second: at
// holds each acknowledgement's offset in nanoseconds; every window's
// time per acknowledgement is its length over its count, and the first
// quartile of the windows is inverted — steady, for a rate.
func (s series) steadyRate() float64 {
	var perOp []float64
	for _, w := range s.windows() {
		if span := w[len(w)-1].at - w[0].at; span > 0 {
			perOp = append(perOp, float64(span)/float64(len(w)-1))
		}
	}
	if len(perOp) == 0 {
		return 0
	}
	return 1e9 / firstQuartile(perOp)
}

// fastest is the minimum of repeated measurements of one quantity (set-
// ups, recoveries, publish reps): interference only adds time, so the
// fastest repetition is the one least disturbed. 0 for none.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// firstQuartile is the lower quartile of the windows of one phase
// (nearest rank below); it sorts in place. 0 for none.
func firstQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[(len(xs)-1)/4]
}

// tailRule names the highest of p90/p99/p99.9 that still has at least
// ten samples beyond it, the percentile a sample of n supports. A sample
// too small for p90 gets its maximum.
func tailRule(n int) (q float64, label string) {
	for _, c := range []struct {
		q     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.90, "p90"}} {
		if beyond(n, c.q) >= 10 {
			return c.q, c.label
		}
	}
	return 1, "max"
}

// beyond counts the samples of n that lie strictly above the q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - int(q*float64(n-1))
}

// median of a float slice; it sorts in place. 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so
// the number printed here is the one the harness computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := median(s)
	if med == 0 {
		return math.NaN()
	}
	return (quartile(3) - quartile(1)) / math.Abs(med)
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
