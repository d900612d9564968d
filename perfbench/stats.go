package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile (q in [0,1]) of xs, or 0
// for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the middle of xs, the mean of the two middle values for
// an even count, or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tailLadder are the candidate tail percentiles, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPct is the highest percentile with at least ten samples beyond it.
func tailPct(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// timing is one layer timing's samples and its report unit.
type timing struct {
	name    string
	unit    string
	scale   float64 // sample units per report unit
	samples []float64
}

func newTiming(name, unit string, scale float64, capacity int) *timing {
	return &timing{name: name, unit: unit, scale: scale, samples: make([]float64, 0, capacity)}
}

func (t *timing) add(v float64) { t.samples = append(t.samples, v) }

// report writes the timing as p50, the highest percentile with ten
// samples beyond it (under its fixed tail name) and the sample count.
func (t *timing) report(ms map[string]metric, p50Name, tailName string) {
	n := len(t.samples)
	p := tailPct(n)
	ms[p50Name] = metric{median(t.samples) / t.scale, t.unit}
	ms[tailName] = metric{quantile(t.samples, p/100) / t.scale, t.unit}
	ms[t.name+".tail_pct"] = metric{p, "pct"}
	ms[t.name+".n"] = metric{float64(n), "count"}
}
