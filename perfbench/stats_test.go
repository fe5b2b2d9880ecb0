package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) of Python 3.11.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered to %v", xs)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", m)
	}
	if m := median([]float64{7, 1, 3}); m != 3 {
		t.Errorf("median of an odd count = %v, want 3", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v, want %v", s, (8.25-2.75)/5.5)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("spread of one run is not NaN")
	}
}

func TestHistogramExactBelow256(t *testing.T) {
	var h hist
	for v := int64(1); v <= 200; v++ {
		h.add(v)
	}
	if q := h.quantile(0.5); q != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", q)
	}
	if q := h.quantile(0.99); q != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", q)
	}
	if q := h.quantile(1); q != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", q)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	for _, v := range []int64{256, 257, 1000, 65_432, 1_000_000, 123_456_789, 1 << 40} {
		var h hist
		h.add(v)
		got := h.quantile(0.5)
		if rel := math.Abs(got-float64(v)) / float64(v); rel > 1.0/histSub {
			t.Errorf("value %d reads back as %v (relative error %.4f)", v, got, rel)
		}
	}
}

func TestHistogramBucketsAreMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<20; v += 7 {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d after %d", v, b, prev)
		}
		if lo := bucketValue(b); math.Abs(lo-float64(v)) > float64(v)/histSub+1 {
			t.Fatalf("bucket %d of %d centres on %v", b, v, lo)
		}
		prev = b
	}
	if b := bucketOf(math.MaxInt64); b != histBuckets-1 {
		t.Errorf("bucketOf(max) = %d, want the last bucket", b)
	}
	if b := bucketOf(-5); b != 0 {
		t.Errorf("bucketOf(-5) = %d, want 0", b)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b hist
	for v := int64(0); v < 100; v++ {
		a.add(v)
		b.add(v + 100)
	}
	a.merge(&b)
	if a.n != 200 || a.quantile(0.5) != 99 {
		t.Errorf("merged n=%d p50=%v, want 200 and 99", a.n, a.quantile(0.5))
	}
	var empty hist
	if !math.IsNaN(empty.quantile(0.5)) {
		t.Error("quantile of an empty histogram is not NaN")
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		q    float64
		ok   bool
		name string
	}{
		{19, 0, false, ""},
		{20, 0.5, true, "p50"},
		{999, 0.9, true, "p90"},
		{1000, 0.99, true, "p99"},
		{10_000, 0.999, true, "p99.9"},
		{250_000, 0.9999, true, "p99.99"},
		{10_000_000, 0.999999, true, "p99.9999"},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.ok)
		}
		if ok && percentLabel(q) != tc.name {
			t.Errorf("percentLabel(%v) = %q, want %q", q, percentLabel(q), tc.name)
		}
	}
}

func TestWindowMediansOverSlices(t *testing.T) {
	var m meter
	// Three slices; the middle one is disturbed. The medians ignore it.
	for k, lat := range []int64{100, 10_000, 120} {
		for i := 0; i < 200; i++ {
			m.poll(0, k, lat, 4, 4, "ok")
		}
	}
	m.poll(-1, 0, 1, 1, 1, "ok") // outside the windows: dropped
	w := &m.windows[0]
	if got := w.perSlice(0.5); got != 0.12 {
		t.Errorf("median per-slice p50 = %vus, want 0.12", got)
	}
	if got := w.tasksPerSec(); got != 800 {
		t.Errorf("median tasks per slice = %v, want 800", got)
	}
	if w.polls != 600 || w.tasksPerPoll() != 4 || w.grantRatio() != 1 {
		t.Errorf("polls=%d tasks/poll=%v grant ratio=%v", w.polls, w.tasksPerPoll(), w.grantRatio())
	}
}
