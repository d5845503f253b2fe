package main

import (
	"math"
	"math/bits"
	"sort"
)

// Histogram layout: exact 1 ns buckets below 2^linBits ns, then 2^subBits
// log-spaced buckets per power of two up to 2^maxPow ns (about 18
// minutes). In-process lookups keep 1 ns resolution; network latencies
// keep better than 1%.
const (
	linBits  = 11
	subBits  = 7
	maxPow   = 40
	nBuckets = 1<<linBits + (maxPow-linBits)<<subBits
)

// hist is a latency histogram owned by one goroutine; merge combines
// the per-worker histograms after a run.
type hist struct {
	counts [nBuckets]uint64
	n      uint64
	sum    float64 // of recorded values, failures excluded
	nOK    uint64
}

func bucketOf(v int64) int {
	if v < 1<<linBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	p := bits.Len64(uint64(v)) - 1
	if p >= maxPow {
		return nBuckets - 1
	}
	sub := int(uint64(v)>>(p-subBits)) & (1<<subBits - 1)
	return 1<<linBits + (p-linBits)<<subBits + sub
}

// bucketLo is the smallest value a bucket holds; bucketLo(b+1) bounds
// it from above.
func bucketLo(b int) float64 {
	if b < 1<<linBits {
		return float64(b)
	}
	b -= 1 << linBits
	p := b>>subBits + linBits
	sub := b & (1<<subBits - 1)
	return float64(uint64(1)<<p + uint64(sub)<<(p-subBits))
}

func (h *hist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += float64(ns)
	h.nOK++
}

// recordFailed counts an operation that failed as slower than any
// limit: it lands in the top bucket.
func (h *hist) recordFailed() {
	h.counts[nBuckets-1]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	h.nOK += o.nOK
}

// mean is the mean of the recorded values, failures excluded.
func (h *hist) mean() float64 { return ratio(h.sum, float64(h.nOK)) }

// quantile returns the q-quantile, interpolated linearly inside the
// bucket it falls in, so it varies smoothly rather than in bucket steps.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketLo(b), bucketLo(b+1)
			return lo + (rank-cum)/float64(c)*(hi-lo)
		}
		cum += float64(c)
	}
	return bucketLo(nBuckets - 1)
}

// median returns the median of xs (0 for none); xs is not modified.
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

// ratio divides, returning 0 for a zero denominator.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) {
		return 0
	}
	return num / den
}
