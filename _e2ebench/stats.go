package main

import (
	"cmp"
	"fmt"
	"slices"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read off fewer points than this is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank num/den quantile of samples (sorted
// in place) and whether the sample supports it, i.e. at least minBeyond
// samples rank above it. The rank is computed in integers so that, say,
// p99 of exactly 1000 samples is the 990th, never the 991st.
func percentile[T cmp.Ordered](samples []T, num, den int) (T, bool) {
	n := len(samples)
	if n == 0 {
		var zero T
		return zero, false
	}
	if !slices.IsSorted(samples) {
		slices.Sort(samples)
	}
	rank := (n*num + den - 1) / den // ceil(n*q), 1-based
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], n-rank >= minBeyond
}

// ratio is part/base, defined as 0 when the base is 0 (nothing attempted
// means nothing failed, missed or retried). Callers report the base
// beside the ratio so a 0 from an empty base is never mistaken for one
// measured over real traffic.
func ratio(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return part / base
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet accumulates a run's metrics and the first percentile the
// sample could not support.
type metricSet struct {
	m   map[string]metric
	err error
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]metric)} }

func (s *metricSet) set(name string, v float64, unit string) {
	s.m[name] = metric{Value: v, Unit: unit}
}

// pct records the num/den percentile of samples (nanoseconds) in unit,
// or notes that the sample is too small to support it.
func (s *metricSet) pct(name string, samples []int64, num, den int, unit string) {
	v, ok := percentile(samples, num, den)
	if !ok && s.err == nil {
		s.err = fmt.Errorf("%s: %d samples do not support p%d/%d with %d beyond", name, len(samples), num, den, minBeyond)
	}
	s.set(name, float64(v)/unitNanos(unit), unit)
}

// unitNanos is the number of nanoseconds in a time unit.
func unitNanos(unit string) float64 {
	switch unit {
	case "ns":
		return 1
	case "us":
		return 1e3
	case "ms":
		return 1e6
	}
	panic("e2ebench: not a time unit: " + unit)
}
