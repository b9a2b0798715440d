package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/shapley"
	"repro/internal/sqlparse"
)

// serveRate is the fixed open-loop arrival rate of serve-imdb, in requests
// per second: about 35% of the closed-loop capacity measured when the
// benchmark was introduced (about 96 requests/s over 2 connections on a
// 2-core Xeon host). At 60% the latencies swung by a factor of two between
// runs (README.md, "Workloads"). It is a constant so that a faster server
// shows as lower latency at the same offered load, and a slower one as
// higher latency and a lower slo_share.
const serveRate = 34.0

// serveLimitMS is the interactive latency limit slo_share counts against.
const serveLimitMS = 250.0

// serveState is one set-up of serve-imdb: a running server and its inputs.
type serveState struct {
	corpus *dataset.Corpus
	model  *core.Model
	srv    *serve.Server
	bodies [][]byte
	inputs []core.Input // inputs[i] is the lineage bodies[i] asks for
}

func (s *serveState) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// testInputs returns the corpus's test-split lineages in serve.RankBodies
// order, so inputs[i] is what bodies[i] asks for.
func testInputs(c *dataset.Corpus) []core.Input {
	var out []core.Input
	for _, qi := range c.Test {
		q := c.Queries[qi]
		for _, cs := range q.Cases {
			out = append(out, core.Input{SQL: q.SQL, Query: q.Query, TupleValues: cs.Tuple.Values, Lineage: cs.Tuple.Lineage()})
		}
	}
	return out
}

// setupServe builds the IMDB corpus, loads the checkpoint, and starts an
// in-process server with the program's default serving configuration. ref,
// when non-nil, is filled with the sequential reference scores before the
// server starts; its time is excluded from the returned set-up time.
func setupServe(e *env, rep *report, ck checkpoint, ref *[]shapley.Values) (*serveState, float64, error) {
	t0 := time.Now()
	c, err := dataset.Build(dataset.DefaultConfig(dataset.IMDB))
	if err != nil {
		return nil, 0, err
	}
	m, err := loadModel(ck, c)
	if err != nil {
		return nil, 0, err
	}
	srv := serve.New(serve.DefaultConfig(), c, m)
	bodies, err := serve.RankBodies(c, 0)
	if err != nil {
		return nil, 0, err
	}
	st := &serveState{corpus: c, model: m, srv: srv, bodies: bodies, inputs: testInputs(c)}
	if len(st.inputs) != len(bodies) {
		return nil, 0, fmt.Errorf("serve-imdb: %d request bodies but %d test lineages", len(bodies), len(st.inputs))
	}
	var excluded time.Duration
	if ref != nil {
		r0 := time.Now()
		*ref = referenceScores(e, st)
		excluded = time.Since(r0)
	}
	if err := srv.Start(); err != nil {
		return nil, 0, err
	}
	// Warm-up: every distinct request once, sequentially, so replicas are
	// cloned and their workspaces grown before the timed phase.
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for i, b := range bodies {
		rep.check(warmUp(client, srv.URL(), i, b))
	}
	return st, (time.Since(t0) - excluded).Seconds(), nil
}

// warmUp sends one request and checks that it succeeds.
func warmUp(client *http.Client, url string, i int, body []byte) error {
	resp, err := client.Post(url+"/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("warm-up request %d: %w", i, err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("warm-up request %d: %w", i, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up request %d: status %d", i, resp.StatusCode)
	}
	return nil
}

// referenceScores ranks every request lineage sequentially on a
// CloneForWorker replica of the served model: the bitwise reference every
// /rank response is checked against. In traced runs each call is a
// core.RankOn span.
func referenceScores(e *env, st *serveState) []shapley.Values {
	replica := st.model.CloneForWorker()
	ref := make([]shapley.Values, len(st.inputs))
	for i, in := range st.inputs {
		id := uint64(i + 1)
		sp := e.tr.begin("core.RankOn", id, 0)
		ref[i] = replica.RankOn(st.corpus.DB, in)
		e.tr.end(sp)
	}
	return ref
}

// replayParseEvaluate times the pre-queue work of one request (or one corpus
// query): sqlparse.Parse and engine.Evaluate, as spans under parent.
func replayParseEvaluate(e *env, c *dataset.Corpus, sql string, id, parent uint64) {
	sp := e.tr.begin("sqlparse.Parse", id, parent)
	q, err := sqlparse.Parse(sql)
	e.tr.end(sp)
	if err != nil {
		return
	}
	sp = e.tr.begin("engine.Evaluate", id, parent)
	_, _ = engine.Evaluate(c.DB, q) // replayed for timing; the program's own call is checked by /rank
	e.tr.end(sp)
}

// checkRank compares one /rank response bitwise against the reference.
func checkRank(body []byte, want shapley.Values) error {
	var resp serve.RankResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode /rank response: %w", err)
	}
	if len(resp.Facts) != len(want) {
		return fmt.Errorf("/rank returned %d facts, reference has %d", len(resp.Facts), len(want))
	}
	order := want.Ranking()
	for i, f := range resp.Facts {
		ws, ok := want[relation.FactID(f.ID)]
		if !ok {
			return fmt.Errorf("/rank returned fact %d outside the lineage", f.ID)
		}
		if math.Float64bits(ws) != math.Float64bits(f.Score) {
			return fmt.Errorf("fact %d: /rank score %v differs from sequential RankOn %v", f.ID, f.Score, ws)
		}
		if relation.FactID(f.ID) != order[i] {
			return fmt.Errorf("/rank order differs from the reference at position %d", i)
		}
	}
	return nil
}

func runServe(e *env) (*report, error) {
	rep := &report{raw: map[string]any{}}
	ck, err := ensureModel(e.dir, dataset.IMDB)
	if err != nil {
		return nil, err
	}
	rep.useCheckpoint(ck)
	var st *serveState
	var ref []shapley.Values
	for k := 0; k < setupReps; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		var refp *[]shapley.Values
		if k == setupReps-1 {
			refp = &ref
		}
		var s float64
		st, s, err = setupServe(e, rep, ck, refp)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}
	defer st.close()

	// Whole cycles of the request mix, so every lineage is sent equally often
	// and the tail, set by the few heaviest lineages, holds the same requests
	// in every run; at least --seconds of schedule and at least minOps
	// requests, so that the printed p99 is a supported percentile.
	want := math.Max(serveRate*e.seconds.Seconds(), minOps)
	cycles := int(math.Ceil(want / float64(len(st.bodies))))
	n := cycles * len(st.bodies)
	conns := runtime.NumCPU()
	g := &openLoop{
		url:    st.srv.URL(),
		rate:   serveRate,
		conns:  conns,
		bodies: st.bodies,
		order:  seededOrder(e.seed, len(st.bodies), n),
		grace:  60 * time.Second,
		tr:     e.tr,
	}
	g.check = func(i int, body []byte) error { return checkRank(body, ref[g.order[i]]) }
	res := g.run(e.ctx)
	for _, r := range res.results {
		rep.check(r.err)
	}
	rep.ops = g.samples(res)
	lat := latencies(rep.ops)
	lags := res.lags()
	lagSorted := append([]float64(nil), lags...)
	sort.Float64s(lagSorted)
	if e.traced() {
		// The server's stage histograms hold the open-loop traffic only.
		rep.layers = serveLayers(e, rep, st, lagSorted)
	}

	rates := closedLoopRates(e, rep, st, ref, uint64(n))
	rep.tput = median(rates)
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(st)

	rep.add("rank_p50_ms", finite(typicalMS(rep.ops)), "ms", "(Harrell-Davis median across lineages of each lineage's fastest request, from scheduled send; op_p50_ms)")
	rep.add("rank_p95_ms", finite(tailMS(rep.ops)), "ms", "(Harrell-Davis p95 across lineages of per-lineage medians; op_p95_ms)")
	rep.add("rank_p99_ms", finite(quantile(lat, 0.99)), "ms", "(over all requests)")
	rep.add("slo_share", sloShare(rep.ops, n, serveLimitMS), "ratio", fmt.Sprintf("(correct within %.0f ms / %d sent)", serveLimitMS, n))
	rep.add("capacity_facts_per_s", rep.tput, "1/s", fmt.Sprintf("(closed loop over %d connections, median of %d windows; throughput_per_s)", conns, len(rates)))
	rep.add("loadgen.lag_ms.p99", quantile(lagSorted, 0.99), "ms", "(generator lateness; validity check)")
	rep.notef("open loop at %.0f req/s over %d connections, %d requests, %d distinct lineages", serveRate, conns, n, len(st.bodies))
	rep.raw["latency_ms"] = latencyValues(rep.ops)
	rep.raw["lag_ms"] = lags
	rep.raw["capacity_facts_per_s"] = rates
	return rep, nil
}

// closedWindows and closedCycles size the capacity phase of serve-imdb: that
// many windows, each closedCycles whole cycles of the request mix.
const closedWindows, closedCycles = 5, 1

// closedLoopRates measures the server's capacity after the open-loop phase:
// nproc clients that each send their next request as soon as the previous
// one returns, over closedWindows windows of whole cycles in fresh seeded
// orders. It returns each window's lineage facts in correct responses per
// second; every response is checked like the open loop's. idBase keeps the
// requests' trace IDs apart from the open loop's.
func closedLoopRates(e *env, rep *report, st *serveState, ref []shapley.Values, idBase uint64) []float64 {
	m := len(st.bodies)
	rates := make([]float64, 0, closedWindows)
	for w := 0; w < closedWindows; w++ {
		g := &openLoop{
			url:    st.srv.URL(),
			rate:   math.Inf(1),
			conns:  runtime.NumCPU(),
			bodies: st.bodies,
			order:  seededOrder(e.seed+int64(w+1)*7919, m, closedCycles*m),
			grace:  60 * time.Second,
			tr:     e.tr,
			idBase: idBase + uint64(w*closedCycles*m),
		}
		g.check = func(i int, body []byte) error { return checkRank(body, ref[g.order[i]]) }
		res := g.run(e.ctx)
		facts := 0.0
		for i, r := range res.results {
			rep.check(r.err)
			if r.err == nil {
				facts += float64(len(st.inputs[g.order[i]].Lineage))
			}
		}
		rates = append(rates, facts/res.elapsed.Seconds())
	}
	return rates
}
