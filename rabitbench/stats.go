package main

import (
	"math"
	"slices"
	"time"
)

// samples is a set of durations in nanoseconds.
type samples []int64

// quantile returns the nearest-rank q-quantile (0 for no samples),
// leaving s in the order the samples were taken.
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	k := int(math.Ceil(q * float64(len(c))))
	k = min(max(k, 1), len(c))
	return c[k-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantiles is the ladder the reporting rule picks from.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// highestTail is the reporting rule for tails: the highest percentile on
// the ladder with at least ten samples beyond it, or 0 when not even
// the median has ten.
func highestTail(n int) float64 {
	for _, q := range tailQuantiles {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// maxWindows and minWindow shape the p99 estimate: the samples, in the
// order they were taken, are cut into up to maxWindows consecutive
// windows of at least minWindow samples each.
const (
	maxWindows = 10
	minWindow  = 1000
)

// p99 returns the median over consecutive windows of each window's
// nearest-rank p99. Each window has at least ten samples beyond its
// p99, and the median keeps one burst of machine noise inside a single
// window from setting the run's tail. With fewer than two windows'
// worth of samples it is the plain p99.
func (s samples) p99() int64 {
	k := min(maxWindows, len(s)/minWindow)
	if k < 2 {
		return s.quantile(0.99)
	}
	per := make(samples, k)
	for i := range k {
		lo, hi := i*len(s)/k, (i+1)*len(s)/k
		per[i] = s[lo:hi].quantile(0.99)
	}
	return per.quantile(0.5)
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// setLatency records name.p50 and, when the reporting rule allows it,
// name.p99 (see samples.p99), in the unit of scale: 1e3 for µs, 1e6 for
// ms. With too few samples for p99 the run fails its check rather than
// silently reporting another percentile.
func (r *report) setLatency(name, unit string, s samples, scale float64, note string) {
	n := len(s)
	if n == 0 {
		r.problem("%s: no samples", name)
		return
	}
	if highestTail(n) < 0.99 {
		r.problem("%s.p99: %d samples leave fewer than ten beyond p99", name, n)
	} else {
		r.set(name+".p99", unit, float64(s.p99())/scale, n, note)
	}
	r.set(name+".p50", unit, float64(s.quantile(0.5))/scale, n, note)
}

// setTail records name.p99 (in µs) when the reporting rule allows it.
func (r *report) setTail(name string, s samples, note string) {
	if highestTail(len(s)) >= 0.99 {
		r.set(name+".p99", "us", us(s.p99()), len(s), note)
	}
}

// medianDuration returns the nearest-rank median of ds.
func medianDuration(ds []time.Duration) time.Duration {
	s := make(samples, len(ds))
	for i, d := range ds {
		s[i] = int64(d)
	}
	return time.Duration(s.quantile(0.5))
}

// medianFloat returns the nearest-rank median of xs.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[(len(c)-1)/2]
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
