package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// hist is a log-linear histogram of non-negative durations in
// nanoseconds. Values below 256 are counted exactly; above, each power
// of two is split into 128 buckets, so a reported quantile is within
// 0.8% of the true sample. It is fixed-size and allocation-free to
// record into, which keeps the measuring out of the measured heap.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 128
	histBuckets = 2*histSub + 40*histSub // up to 2^48 ns (~78 h)
)

func bucketOf(v int64) int {
	if v < 2*histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 8
	i := 2*histSub + (shift-1)*histSub + int(v>>shift) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketValue is the midpoint of bucket i (exact for the linear range).
func bucketValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	shift := (i-2*histSub)/histSub + 1
	lo := int64((i-2*histSub)%histSub+histSub) << shift
	return float64(lo) + float64(int64(1)<<shift)/2
}

func (h *hist) add(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) in ns, or
// NaN for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			return bucketValue(i)
		}
	}
	return bucketValue(histBuckets - 1)
}

// tailLadder is the set of percentiles tailQuantile chooses from.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}

// tailQuantile picks the highest percentile of the ladder that still
// has at least ten samples beyond it — the most extreme tail a sample
// of size n can report without resting on a handful of outliers. ok is
// false when n < 20 (not even the median has ten samples above it).
func tailQuantile(n uint64) (q float64, ok bool) {
	for _, c := range tailLadder {
		if (1-c)*float64(n) >= 10-1e-9 {
			q, ok = c, true
		}
	}
	return q, ok
}

// percentLabel renders q as a percentile name: 0.999 → "p99.9".
func percentLabel(q float64) string {
	s := strings.TrimRight(fmt.Sprintf("%.4f", q*100), "0")
	return "p" + strings.TrimSuffix(s, ".")
}

// quartiles returns the three cut points of xs into four equal groups
// by the "exclusive" method of Python's statistics.quantiles(n=4), so
// a spread computed here matches one computed from the same values in
// Python. xs needs at least two values and is not modified.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// spread is the run-to-run spread of xs: the distance between the
// first and third quartile as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(q2)
}
