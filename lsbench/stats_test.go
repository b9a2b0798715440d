package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	}
	for _, c := range cases {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestQuantileP99Of1000(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// Nearest rank: the 990th smallest, with exactly 10 samples above it.
	if got := quantile(xs, 0.99); got != 990 {
		t.Fatalf("p99 of 1..1000 = %v, want 990", got)
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 9}, {20, 50}, {100, 90}, {200, 95}, {999, 98.9}, {1000, 99}, {1260, 99.2}, {10000, 99.9},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("supportedPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The definition itself: at the supported percentile at least minBeyond
	// samples lie beyond the nearest rank.
	for _, n := range []int{20, 137, 999, 1000, 4321} {
		p := supportedPercentile(n)
		if beyond := n - 1 - nearestRank(p/100, n); beyond < minBeyond {
			t.Errorf("n=%d: p%.1f has only %d samples beyond it", n, p, beyond)
		}
	}
}

func TestFailuresCountAsInfinitelySlow(t *testing.T) {
	ops := []opSample{{ms: 5, ok: true}, {ms: 1, ok: false}, {ms: 7, ok: true}, {ms: 2, ok: false}}
	lat := latencies(ops)
	if !math.IsInf(lat[3], 1) || !math.IsInf(lat[2], 1) {
		t.Fatalf("failed operations must sort last as +Inf, got %v", lat)
	}
	// A failure that returned fast (1 ms) must not pull the median down.
	if got := quantile(lat, 0.5); got != 7 {
		t.Errorf("median with two failures = %v, want 7", got)
	}
	if got := finite(quantile(lat, 0.99)); got != maxReportMS {
		t.Errorf("a tail made of failures must report as %v, got %v", maxReportMS, got)
	}
}

func TestSLOShareCountsFailedAndRefusedAsMisses(t *testing.T) {
	ops := []opSample{
		{ms: 10, ok: true},  // within the limit
		{ms: 20, ok: true},  // within the limit
		{ms: 300, ok: true}, // answered, too late
		{ms: 5, ok: false},  // fast but failed (wrong scores or a non-200 status)
		{ms: 1, ok: false},  // refused with 429: fast, still a miss
	}
	if got := sloShare(ops, len(ops), 250); got != 0.4 {
		t.Errorf("slo_share = %v, want 0.4", got)
	}
}

func TestSLOShareDividesBySent(t *testing.T) {
	// Ten requests sent, only four completed (the rest never answered): the
	// share is 4/10, not 4/4.
	ops := []opSample{{ms: 1, ok: true}, {ms: 2, ok: true}, {ms: 3, ok: true}, {ms: 4, ok: true}}
	if got := sloShare(ops, 10, 250); got != 0.4 {
		t.Errorf("slo_share = %v, want 0.4 (divided by requests sent)", got)
	}
	if got := sloShare(nil, 0, 250); got != 0 {
		t.Errorf("slo_share with nothing sent = %v, want 0", got)
	}
}

func TestLag(t *testing.T) {
	ms := int64(time.Millisecond)
	if got := lagMS(100*ms, 100*ms); got != 0 {
		t.Errorf("on-time lag = %v", got)
	}
	if got := lagMS(100*ms, 99*ms); got != 0 {
		t.Errorf("early send must count as on time, got %v", got)
	}
	if got := lagMS(100*ms, 112*ms+ms/2); got != 12.5 {
		t.Errorf("lag = %v, want 12.5", got)
	}
}

func TestLoadResultMeasuresFromDueTime(t *testing.T) {
	ms := int64(time.Millisecond)
	res := loadResult{results: []reqResult{
		{dueNS: 0, sentNS: 0, doneNS: 10 * ms, sent: true},
		// Sent 30 ms late because both connections were busy: the wait is
		// part of its latency and of the lag.
		{dueNS: 20 * ms, sentNS: 50 * ms, doneNS: 60 * ms, sent: true},
		// Never sent before the deadline: a failure, and not a lag sample.
		{dueNS: 40 * ms, err: errNotSent},
	}}
	g := &openLoop{order: []int{4, 5, 6}}
	s := g.samples(res)
	if s[0].ms != 10 || s[1].ms != 40 || s[2].ok || s[1].item != 5 {
		t.Errorf("samples = %+v", s)
	}
	lags := res.lags()
	if len(lags) != 2 || lags[0] != 0 || lags[1] != 30 {
		t.Errorf("lags = %v, want [0 30]", lags)
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{1, 2, 4, 8, 16}
	// Beta(3,3) weights from I_x(3,3) = x^3(10-15x+6x^2):
	// .05792, .25952, .36512, .25952, .05792.
	if got := hdQuantile(xs, 0.5); math.Abs(got-5.04032) > 1e-9 {
		t.Errorf("HD median = %v, want 5.04032", got)
	}
	// Beta(1.5,4.5) weights, by numerical integration.
	if got := hdQuantile(xs, 0.25); math.Abs(got-2.06934) > 1e-5 {
		t.Errorf("HD p25 = %v, want 2.06934", got)
	}
	if got := hdQuantile([]float64{7, 7, 7, 7}, 0.95); math.Abs(got-7) > 1e-12 {
		t.Errorf("HD p95 of a constant = %v, want 7", got)
	}
	sym := make([]float64, 75)
	for i := range sym {
		sym[i] = float64(i + 1)
	}
	if got := hdQuantile(sym, 0.5); math.Abs(got-38) > 1e-9 {
		t.Errorf("HD median of 1..75 = %v, want 38", got)
	}
	if !math.IsNaN(hdQuantile(nil, 0.5)) || hdQuantile([]float64{3}, 0.9) != 3 {
		t.Error("HD of no samples must be NaN, of one sample that sample")
	}
}

func TestHDQuantileAcrossAGap(t *testing.T) {
	// 37 lineages near 7 ms and 38 near 10.5 ms: the median sits at the gap.
	// When one lineage crosses it, the nearest-rank median jumps by the gap,
	// the Harrell-Davis median by a small fraction of it.
	build := func(low int) []float64 {
		var xs []float64
		for i := 0; i < 75; i++ {
			if i < low {
				xs = append(xs, 7+float64(i)*0.01)
			} else {
				xs = append(xs, 10.5+float64(i)*0.01)
			}
		}
		return xs
	}
	a, b := build(37), build(38)
	if jump := quantile(b, 0.5) - quantile(a, 0.5); jump > -3 {
		t.Fatalf("nearest-rank median moved by %v, expected a jump across the gap", jump)
	}
	if move := math.Abs(hdQuantile(b, 0.5) - hdQuantile(a, 0.5)); move > 0.5 {
		t.Errorf("HD median moved by %v across the gap, want < 0.5", move)
	}
}

func TestHDQuantileFailures(t *testing.T) {
	xs := []float64{1, 2, 3, math.Inf(1)}
	if !math.IsInf(hdQuantile(xs, 0.95), 1) {
		t.Error("a failure in the tail must make the p95 infinite")
	}
	many := make([]float64, 300)
	for i := range many {
		many[i] = float64(i)
	}
	many[299] = math.Inf(1)
	if got := hdQuantile(many, 0.5); math.IsInf(got, 0) || math.Abs(got-149.5) > 1 {
		t.Errorf("a failure far from the median, with negligible weight, must not make it infinite: %v", got)
	}
}

func TestTypicalAndTailMS(t *testing.T) {
	var ops []opSample
	// 100 lineages taking i ms, each run three times; one repetition of each
	// ran on a slowed host and one request of lineage 7 failed.
	for rep, scale := range []float64{1.02, 3, 1} {
		for i := 1; i <= 100; i++ {
			ops = append(ops, opSample{ms: float64(i) * scale, ok: !(rep == 2 && i == 7), item: i})
		}
	}
	mins := itemStats(ops, minOf)
	if math.Abs(mins[6]-7.14) > 1e-9 || mins[7] != 8 {
		t.Errorf("lineage 7's fastest repetition that did not fail is 7.14 ms, got %v (and lineage 8's 8, got %v)", mins[6], mins[7])
	}
	if got, want := typicalMS(ops), hdQuantile(mins, 0.5); got != want || math.Abs(got-50.5) > 0.6 {
		t.Errorf("typical = %v, want the HD median of fastest repetitions near 50.5", got)
	}
	// Medians are the 1.02 repetitions, except lineage 7's: with one failure
	// of three it is the slowed repetition, 21 ms, not infinite.
	meds := itemStats(ops, median)
	if math.Abs(meds[6]-8.16) > 1e-9 || math.Abs(meds[18]-20.4) > 1e-9 || meds[19] != 21 || math.IsInf(meds[99], 1) {
		t.Errorf("lineage medians = %v", meds[:22])
	}
	if got := tailMS(ops); math.Abs(got-hdQuantile(meds, 0.95)) > 0 || got < 1.02*94 || got > 1.02*97 {
		t.Errorf("tail = %v, want the HD p95 of lineage medians, near %v", got, 1.02*95.95)
	}
	if got := itemMedianSum(ops[:0]); got != 0 {
		t.Errorf("empty sum = %v", got)
	}
	if got := itemMedianSum(ops); math.Abs(got-5151) > 1e-6 {
		t.Errorf("sum of lineage medians = %v, want 5151 (1.02 × 5050)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
}

func TestHistQuantile(t *testing.T) {
	h := obs.HistogramSnapshot{Count: 10, Buckets: []obs.BucketSnapshot{
		{UpperBound: "1", Count: 0},
		{UpperBound: "2", Count: 10},
		{UpperBound: "+Inf", Count: 0},
	}}
	if got := histQuantile(h, 0.5); got != 1.5 {
		t.Errorf("bucket median = %v, want 1.5", got)
	}
	over := obs.HistogramSnapshot{Count: 1, Buckets: []obs.BucketSnapshot{{UpperBound: "4", Count: 0}, {UpperBound: "+Inf", Count: 1}}}
	if got := histQuantile(over, 0.99); got != 4 {
		t.Errorf("overflow quantile = %v, want the last finite bound 4", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{Name: "parent", Seq: 1, Start: at(0), End: at(100)},
		{Name: "a", Seq: 2, Parent: 1, Start: at(10), End: at(40)},
		{Name: "b", Seq: 3, Parent: 1, Start: at(30), End: at(50)},  // overlaps a
		{Name: "c", Seq: 4, Parent: 1, Start: at(90), End: at(120)}, // runs past the parent
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100]: 50 ms of the parent's 100.
	if got := self[1]; got != 50*time.Millisecond {
		t.Errorf("parent self time = %v, want 50ms", got)
	}
	if got := self[2]; got != 30*time.Millisecond {
		t.Errorf("leaf self time = %v, want its duration", got)
	}
}

func TestOpenLoopCountsRefusedAsFailed(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%4 == 0 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	g := &openLoop{
		url:    srv.URL,
		rate:   500,
		conns:  2,
		bodies: [][]byte{[]byte("a"), []byte("b")},
		order:  seededOrder(1, 2, 40),
		check:  func(int, []byte) error { return nil },
		grace:  10 * time.Second,
		tr:     newTracer(),
	}
	res := g.run(context.Background())
	failed := 0
	for _, r := range res.results {
		if !r.sent {
			t.Fatal("every request must be sent before the deadline")
		}
		if r.err != nil {
			failed++
		}
	}
	if failed != 10 {
		t.Errorf("%d requests failed, want the 10 refused with 429", failed)
	}
	samples := g.samples(res)
	if got := sloShare(samples, len(g.order), 1e9); got != 0.75 {
		t.Errorf("slo_share = %v, want 0.75: refused requests miss any limit", got)
	}
	for _, l := range res.lags() {
		if l < 0 {
			t.Errorf("negative lag %v", l)
		}
	}
	if got := len(g.tr.snapshot()); got != 40 {
		t.Errorf("%d request spans recorded, want 40", got)
	}
}
