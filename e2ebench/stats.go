package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of latency samples in milliseconds.
type dist []float64

func (d dist) sorted() dist {
	s := append(dist(nil), d...)
	sort.Float64s(s)
	return s
}

// q returns the q-quantile by linear interpolation between closest
// ranks (the same rule as numpy's default), NaN when d is empty.
func (d dist) q(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := d.sorted()
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func (d dist) median() float64 { return d.q(0.5) }

func (d dist) max() float64 { return d.q(1) }

// perWorld averages f over each world's samples.
func perWorld(ds []dist, f func(dist) float64) float64 {
	var t dist
	for _, d := range ds {
		t = append(t, f(d))
	}
	return t.mean()
}

func (d dist) sum() float64 {
	t := 0.0
	for _, v := range d {
		t += v
	}
	return t
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d.sum() / float64(len(d))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
