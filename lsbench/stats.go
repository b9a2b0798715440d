package main

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples is the maximum of two.
const minBeyond = 10

// quantile returns the q-quantile of sorted by the nearest-rank rule: the
// smallest sample with at least a share q of the samples at or below it.
// +Inf samples (failed operations) sort last and are returned like any other
// value, so a tail made of failures reads as infinitely slow.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(q, n)]
}

// nearestRank is the 0-based index of the q-quantile among n sorted samples:
// ceil(q·n) - 1, clamped to [0, n-1]. The epsilon keeps products such as
// 0.9·100 = 90.00000000000001 on the intended rank.
func nearestRank(q float64, n int) int {
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// supportedPercentile returns the highest percentile (0..100, in steps of 0.1)
// that has at least minBeyond samples strictly beyond its nearest rank among
// n samples, or 0 when n is too small for any. p99 needs n >= 1000.
func supportedPercentile(n int) float64 {
	best := 0.0
	for tenths := 1; tenths < 1000; tenths++ {
		if n-1-nearestRank(float64(tenths)/1000, n) >= minBeyond {
			best = float64(tenths) / 10
		}
	}
	return best
}

// opSample is one timed operation: its latency from when it was due, and
// whether it completed correctly. A failed or refused operation counts as
// infinitely slow, so it misses every latency limit.
type opSample struct {
	ms   float64
	ok   bool
	item int // which lineage (request body or labeled case) the operation was
}

// latencies returns the samples' latencies sorted ascending, failures as +Inf.
func latencies(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		if s.ok {
			out[i] = s.ms
		} else {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// itemStats applies stat to each item's (lineage's) latencies over the run's
// repetitions of it, failures as +Inf, and returns the results sorted.
func itemStats(samples []opSample, stat func([]float64) float64) []float64 {
	byItem := map[int][]float64{}
	for _, s := range samples {
		v := s.ms
		if !s.ok {
			v = math.Inf(1)
		}
		byItem[s.item] = append(byItem[s.item], v)
	}
	out := make([]float64, 0, len(byItem))
	for _, v := range byItem {
		out = append(out, stat(v))
	}
	sort.Float64s(out)
	return out
}

// typicalMS is op_p50_ms: the Harrell-Davis median, across items, of each
// item's fastest repetition. The host these numbers come from changes speed
// by tens of percent for fractions of a second at a time, and on a server
// requests collide at random; both only ever add time, so an item's fastest
// repetition is its steadiest figure, while a slower program slows every
// repetition. A failed repetition is infinitely slow, so an item reads as
// infinite only when every repetition failed; any failure also fails the run.
func typicalMS(samples []opSample) float64 {
	return hdQuantile(itemStats(samples, minOf), 0.5)
}

// tailMS is op_p95_ms: the Harrell-Davis p95, across items, of each item's
// median repetition. The per-item median keeps the interference that hits
// most of an item's repetitions (queueing behind a heavy request at the
// fixed rate) and outvotes the rest.
func tailMS(samples []opSample) float64 {
	return hdQuantile(itemStats(samples, median), 0.95)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of sorted: a
// mean of all samples, the i-th weighted by the probability that a
// Beta((n+1)q, (n+1)(1-q)) variable falls in [(i-1)/n, i/n]. Lineage sizes
// are discrete, so the sorted per-lineage figures have gaps; a nearest-rank
// quantile that sits at a gap jumps across it when one lineage changes
// place, while this estimate moves by that lineage's small weight. An +Inf
// sample with a weight above 1e-9 makes the estimate +Inf.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n == 1 || q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[n-1]
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	sum, prev := 0.0, 0.0
	for i, x := range sorted {
		cdf := regIncBeta(a, b, float64(i+1)/float64(n))
		w := cdf - prev
		prev = cdf
		if math.IsInf(x, 1) {
			if w > 1e-9 {
				return math.Inf(1)
			}
			continue
		}
		sum += w * x
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (betai/betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1; m <= 1000; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((a - 1 + 2*fm) * (a + 2*fm))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 1 + 2*fm))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// itemMedianSum is the sum over items of each item's median latency, in
// milliseconds: the time of one pass over every item at the run's typical
// speed.
func itemMedianSum(samples []opSample) float64 {
	byItem := map[int][]float64{}
	for _, s := range samples {
		byItem[s.item] = append(byItem[s.item], s.ms)
	}
	sum := 0.0
	for _, v := range byItem {
		sum += median(v)
	}
	return sum
}

// sloShare is the share of operations SENT that completed correctly within
// limitMS. The denominator is every operation sent (completed, failed,
// refused or never answered), not only those that completed: dividing by
// completions would make an overloaded server that drops requests look
// better than one that answers them late.
func sloShare(samples []opSample, sent int, limitMS float64) float64 {
	if sent == 0 {
		return 0
	}
	good := 0
	for _, s := range samples {
		if s.ok && s.ms <= limitMS {
			good++
		}
	}
	return float64(good) / float64(sent)
}

// lagMS is how late the generator sent a request against its schedule, in
// milliseconds; a request sent early (the sender waits for its slot, so only
// by clock granularity) counts as on time.
func lagMS(scheduledNS, sentNS int64) float64 {
	if sentNS <= scheduledNS {
		return 0
	}
	return float64(sentNS-scheduledNS) / 1e6
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); NaN for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// histQuantile estimates the q-quantile of an obs histogram by linear
// interpolation inside the bucket holding the rank (the Prometheus
// histogram_quantile rule). Snapshot buckets hold per-bucket, not cumulative,
// counts. A rank in the overflow bucket returns the last finite bound. The
// result is an estimate at bucket resolution; callers say so.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := 0.0
	lower := 0.0
	for _, b := range h.Buckets {
		if b.UpperBound == "+Inf" {
			return lower
		}
		upper, err := strconv.ParseFloat(b.UpperBound, 64)
		if err != nil {
			return math.NaN()
		}
		c := float64(b.Count)
		if c > 0 && cum+c >= target {
			return lower + (upper-lower)*(target-cum)/c
		}
		cum += c
		lower = upper
	}
	return lower
}
