package main

import "math"

// Latency histogram with 1%-wide logarithmic buckets: a quantile read
// from it is within 1% of the exact sample quantile, while a worker's
// histograms stay a fixed ~18 KiB each, so keeping every sample never
// shows up in the heap_peak_mb metric.
const (
	histMinNs   = 16.0
	histGrowth  = 1.01
	histBuckets = 2200 // 16ns × 1.01^2200 ≈ 51s
)

var histLogGrowth = math.Log(histGrowth)

type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    float64
}

func (h *hist) observe(ns int64) {
	i := 0
	if v := float64(ns); v > histMinNs {
		i = int(math.Log(v/histMinNs) / histLogGrowth)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
	h.sum += float64(ns)
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// quantileResult is one percentile with the sample support behind it.
type quantileResult struct {
	Ns     float64 `json:"ns"`
	N      uint64  `json:"n"`
	Beyond uint64  `json:"beyond"`
}

// quantile returns the nearest-rank q-quantile, interpolated by rank
// inside its bucket, with the number of samples above that rank.
func (h *hist) quantile(q float64) quantileResult {
	if h.n == 0 {
		return quantileResult{}
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	res := quantileResult{N: h.n, Beyond: h.n - rank}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo := histMinNs * math.Exp(float64(i)*histLogGrowth)
		if i == 0 {
			lo = 0
		}
		hi := histMinNs * math.Exp(float64(i+1)*histLogGrowth)
		res.Ns = lo + (hi-lo)*(float64(rank-cum)-0.5)/float64(c)
		return res
	}
	return res
}
