package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqr is the distance between the first and third quartile.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// latencies summarises one repetition's request timings.
type latencies struct {
	n                        int
	p50, p90, p99, p999, max float64 // milliseconds
	hasP999                  bool    // at least ten samples lie beyond p99.9
	// tail is the highest of p99, p95 and p90 that has at least ten
	// samples beyond it, or the maximum of a smaller sample.
	tail float64
}

func summarize(d []time.Duration) latencies {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	sort.Float64s(v)
	l := latencies{n: len(v)}
	if l.n == 0 {
		return l
	}
	l.p50, l.p90, l.p99, l.p999, l.max = quantile(v, 0.5), quantile(v, 0.9), quantile(v, 0.99), quantile(v, 0.999), v[l.n-1]
	l.hasP999 = l.n >= 10000
	switch {
	case l.n >= 1000:
		l.tail = l.p99
	case l.n >= 200:
		l.tail = quantile(v, 0.95)
	case l.n >= 100:
		l.tail = l.p90
	default:
		l.tail = l.max
	}
	return l
}
