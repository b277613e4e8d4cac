package main

import (
	"math"
	"sort"
	"time"
)

// lat collects per-operation latencies in nanoseconds. One lat belongs to
// one goroutine.
type lat []int64

func (l *lat) add(d time.Duration) { *l = append(*l, int64(d)) }

// pct returns the q-quantile (0..1) in microseconds by nearest rank, or 0
// for an empty sample.
func (l lat) pct(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}

// median of a float sample (0 for an empty one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// series records the operations of a measured phase: when each started,
// relative to the phase start, and how long it took. One series belongs
// to one goroutine; merge them with mergeSeries.
type series struct {
	at  []int64
	dur lat
}

func newSeries(capacity int) series {
	return series{at: make([]int64, 0, capacity), dur: make(lat, 0, capacity)}
}

func (s *series) add(at time.Duration, d time.Duration) {
	s.at = append(s.at, int64(at))
	s.dur = append(s.dur, int64(d))
}

func mergeSeries(ss ...series) series {
	var out series
	for _, s := range ss {
		out.at = append(out.at, s.at...)
		out.dur = append(out.dur, s.dur...)
	}
	return out
}

// phaseWindows is how many equal windows a measured phase is cut into
// for its raw throughput: the median over windows moves little for a
// disturbance that lasts a window or two.
const phaseWindows = 10

// opsPerSecond returns the median over windows of the ops per second that
// started in each window of a phase of the given length.
func (s series) opsPerSecond(length time.Duration) float64 {
	w := length / phaseWindows
	if w <= 0 {
		return 0
	}
	var count [phaseWindows]int
	for _, at := range s.at {
		if k := int(time.Duration(at) / w); k >= 0 && k < phaseWindows {
			count[k]++
		}
	}
	var ops []float64
	for _, n := range count {
		ops = append(ops, float64(n)/w.Seconds())
	}
	return median(ops)
}
