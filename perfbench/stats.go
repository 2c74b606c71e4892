package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile of xs (linear interpolation between
// order statistics). It refuses when fewer than minBeyond samples lie
// beyond the quantile, since such a tail is one or two outliers.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if beyond := int(math.Floor(float64(n)*(1-q) + 1e-9)); beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], nil
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo]), nil
}

// median is the 0.5-quantile without the tail rule; for small samples
// such as repeated set-ups and per-pass throughputs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailLadder lists the percentiles latencies may report, highest first.
var tailLadder = []float64{0.99, 0.9, 0.8, 0.75, 0.5}

// latencies returns the median of the samples and the highest
// percentile q of tailLadder, at most tail, that percentile does not
// refuse, with its value tl. A slow run with few ops reports a lower
// percentile rather than failing; q is 0 if even p50 is refused.
func latencies(lats []float64, tail float64) (p50, q, tl float64) {
	p50 = median(lats)
	for _, q := range tailLadder {
		if q > tail {
			continue
		}
		if tl, err := percentile(lats, q); err == nil {
			return p50, q, tl
		}
	}
	return p50, 0, 0
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
