package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is the serve-imdb traffic: independent users arriving at a fixed
// rate, sent over at most conns persistent connections. Request i is due at
// start + i/rate whatever happened to earlier requests, and its latency is
// measured from that due time, so a stall also charges the requests that
// queued behind it. When every connection is busy, a due request waits for
// one; the wait shows as lateness (lag) and as latency. With rate +Inf every
// request is due at once, and each connection sends its next request as soon
// as the previous one returns: a closed loop of conns clients.
type openLoop struct {
	url   string
	rate  float64 // requests per second
	conns int
	// bodies[order[i]] is request i's body; order is fixed by the seed.
	bodies [][]byte
	order  []int
	// check validates one 200 response of request i; nil means correct.
	check func(i int, body []byte) error
	// grace bounds how long requests may still complete after the schedule
	// ends; a request not answered by then counts as failed.
	grace time.Duration
	tr    *tracer
	// idBase offsets the operation IDs (request i is idBase+i+1), so the
	// requests of several runs in one trace keep distinct IDs.
	idBase uint64
}

// errNotSent marks a request the generator could not send before the run's
// deadline; it counts as failed.
var errNotSent = errors.New("not sent before the run deadline")

// reqResult is one request's outcome, in nanoseconds since the run started.
type reqResult struct {
	dueNS, sentNS, doneNS int64
	sent                  bool
	err                   error
}

// loadResult is the outcome of a run: one slot per scheduled request.
type loadResult struct {
	results []reqResult
	elapsed time.Duration
}

// seededOrder returns n request indices into m bodies: repeated seeded
// shuffles of 0..m-1, so every body is sent equally often in a fixed,
// seed-determined order.
func seededOrder(seed int64, m, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, 0, n)
	for len(out) < n {
		out = append(out, rng.Perm(m)...)
	}
	return out[:n]
}

// run sends len(g.order) requests on the schedule and waits for every one to
// finish or time out. It returns once every sender goroutine has exited.
func (g *openLoop) run(ctx context.Context) loadResult {
	n := len(g.order)
	res := make([]reqResult, n)
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     g.conns,
		MaxIdleConnsPerHost: g.conns,
	}}
	defer client.CloseIdleConnections()
	interval := float64(time.Second) / g.rate
	start := time.Now()
	deadline := start.Add(time.Duration(float64(n)*interval) + g.grace)
	ctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(g.conns)
	for c := 0; c < g.conns; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				res[i].dueNS = int64(due)
				if wait := time.Until(start.Add(due)); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				g.send(ctx, client, start, i, &res[i])
			}
		}()
	}
	wg.Wait()
	return loadResult{results: res, elapsed: time.Since(start)}
}

// send issues request i and records its outcome in r.
func (g *openLoop) send(ctx context.Context, client *http.Client, start time.Time, i int, r *reqResult) {
	sent := time.Now()
	r.sentNS = int64(sent.Sub(start))
	defer func() { r.doneNS = int64(time.Since(start)) }()
	if ctx.Err() != nil {
		r.err = errNotSent
		return
	}
	r.sent = true
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/rank", bytes.NewReader(g.bodies[g.order[i]]))
	if err != nil {
		r.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	opID := g.idBase + uint64(i+1)
	req.Header.Set("X-Trace-Id", fmt.Sprintf("%016x", opID))
	resp, err := client.Do(req)
	if err != nil {
		r.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	g.tr.add("http./rank", opID, 0, sent, done)
	switch {
	case err != nil:
		r.err = fmt.Errorf("read response: %w", err)
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d", resp.StatusCode)
	default:
		r.err = g.check(i, body)
	}
}

// samples converts the results into latency samples measured from each
// request's due time; a request that failed in any way is not ok.
func (g *openLoop) samples(l loadResult) []opSample {
	out := make([]opSample, len(l.results))
	for i, r := range l.results {
		out[i] = opSample{ms: float64(r.doneNS-r.dueNS) / 1e6, ok: r.err == nil, item: g.order[i]}
	}
	return out
}

// lags returns each sent request's lateness against its schedule, in ms.
func (l loadResult) lags() []float64 {
	out := make([]float64, 0, len(l.results))
	for _, r := range l.results {
		if r.sent {
			out = append(out, lagMS(r.dueNS, r.sentNS))
		}
	}
	return out
}
