package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. A
// percentile with fewer samples beyond it is decided by a handful of
// outliers and moves from run to run, so it is refused rather than printed.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs. It
// refuses the percentile when fewer than minTail samples lie strictly
// beyond it.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0, 1)", q)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	v := s[idx]
	beyond := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			q*100, len(s), beyond, minTail)
	}
	return v, nil
}

// median is the middle sample (mean of the two middle ones for an even
// count), with no tail requirement; used for small sets whose median is
// the only statistic reported.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setPercentile sets name to the q-percentile of xs. A refused percentile
// is kept in *err; the first refusal wins.
func (m metrics) setPercentile(name, unit string, xs []float64, q float64, err *error) {
	v, e := percentile(xs, q)
	if e != nil && *err == nil {
		*err = fmt.Errorf("%s: %w", name, e)
	}
	m.set(name, unit, v)
}
