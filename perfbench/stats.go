package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail percentile:
// a p99 needs at least 1000 samples, so that ten of them sit above it.
const tailMin = 10

// dist is a sorted sample of durations.
type dist []time.Duration

func newDist(xs []time.Duration) dist {
	d := append(dist(nil), xs...)
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// rank returns the nearest-rank q-quantile (0 < q <= 1): the smallest
// sample with at least q of the samples at or below it.
func (d dist) rank(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	return d[i]
}

// tailOK reports whether the q-quantile has at least tailMin samples
// beyond it.
func (d dist) tailOK(q float64) bool {
	return float64(len(d))*(1-q) >= tailMin-1e-9
}

// quantile is rank with the sample-count rule enforced: a tail percentile
// the sample cannot support is an error, never a number.
func (d dist) quantile(q float64) (time.Duration, error) {
	if len(d) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && !d.tailOK(q) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all",
			q*100, tailMin, len(d))
	}
	return d.rank(q), nil
}

// tails are the latency percentiles the benchmark reports (p99 is 0
// when a group cannot support it).
type tails struct {
	p25, p50, p90, p99 time.Duration
	n                  int
}

// groupQuantiles returns the medians over groups of each group's p25,
// p50, p90 and p99 (every group must support its p90) and the sample
// count.
func groupQuantiles(groups [][]time.Duration) (tails, error) {
	var t tails
	var q25, q50, q90, q99 []float64
	p99OK := true
	for _, g := range groups {
		d := newDist(g)
		a, err := d.quantile(0.5)
		if err != nil {
			return t, err
		}
		b, err := d.quantile(0.9)
		if err != nil {
			return t, err
		}
		c, err := d.quantile(0.99)
		p99OK = p99OK && err == nil
		q25 = append(q25, float64(d.rank(0.25)))
		q50, q90, q99 = append(q50, float64(a)), append(q90, float64(b)), append(q99, float64(c))
		t.n += len(g)
	}
	t.p25, t.p50, t.p90 = time.Duration(medianF(q25)), time.Duration(medianF(q50)), time.Duration(medianF(q90))
	if p99OK {
		t.p99 = time.Duration(medianF(q99))
	}
	return t, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianF returns the median of xs (mean of the middle pair when even).
func medianF(xs []float64) float64 {
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

// trimmedMeanF returns the mean of xs without its lowest and highest
// tenth: steadier than the median when the values cluster in two modes
// (as election times do around the timer unit).
func trimmedMeanF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 10
	s = s[cut : len(s)-cut]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// allocCounter reads the runtime's cumulative allocation counters.
type allocCounter struct{ samples []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{samples: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns the cumulative heap allocation count and bytes.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.samples)
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// liveHeapMB runs a full GC and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
