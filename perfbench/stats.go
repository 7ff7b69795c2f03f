package main

import (
	"slices"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (q in [0, 1]);
// xs is sorted in place. NaN-free inputs only; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is the q-quantile of ds in unit.
func durQuantile(ds []time.Duration, q float64, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return quantile(xs, q)
}

// ms converts d to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opCounter is the run's failure accounting: every attempted operation
// (frame, HTTP request, merge, boot, checkpoint query) counts once, and
// nothing is retried.
type opCounter struct {
	attempted, failed int64
}

func (o *opCounter) add(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}
