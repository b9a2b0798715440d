package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/shapley"
)

// minOps is the sample count at which a p99 has minBeyond samples beyond it.
// Workloads whose operations are coarse keep measuring past --seconds until
// they hold this many, so that the p99 they print is a supported percentile.
const minOps = 1000

// labeledCase is one labeled corpus case in canonical (query, case) order.
type labeledCase struct {
	qi, ci int
	in     core.Input
	gold   shapley.Values
}

func labeledCases(c *dataset.Corpus) []labeledCase {
	var out []labeledCase
	for qi, q := range c.Queries {
		for ci, cs := range q.Cases {
			out = append(out, labeledCase{qi, ci, core.Input{
				SQL: q.SQL, Query: q.Query, TupleValues: cs.Tuple.Values, Lineage: cs.Tuple.Lineage(),
			}, cs.Gold})
		}
	}
	return out
}

// hashValues folds one lineage's scores, in lineage order, into h's state.
func hashValues(h interface{ Write([]byte) (int, error) }, lineageOrder []core.Input, vals []shapley.Values) {
	var buf [12]byte
	for i, in := range lineageOrder {
		for _, id := range in.Lineage {
			bits := math.Float64bits(vals[i][id])
			for b := 0; b < 4; b++ {
				buf[b] = byte(uint32(id) >> (8 * b))
			}
			for b := 0; b < 8; b++ {
				buf[4+b] = byte(bits >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
}

func sameValues(a, b shapley.Values) bool {
	if len(a) != len(b) {
		return false
	}
	for id, v := range a {
		w, ok := b[id]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// setupRank builds the Academic corpus and loads the checkpoint.
func setupRank(ck checkpoint) (*dataset.Corpus, *core.Model, float64, error) {
	t0 := time.Now()
	c, err := dataset.Build(dataset.DefaultConfig(dataset.Academic))
	if err != nil {
		return nil, nil, 0, err
	}
	m, err := loadModel(ck, c)
	if err != nil {
		return nil, nil, 0, err
	}
	return c, m, time.Since(t0).Seconds(), nil
}

func runRank(e *env) (*report, error) {
	rep := &report{raw: map[string]any{}}
	ck, err := ensureModel(e.dir, dataset.Academic)
	if err != nil {
		return nil, err
	}
	rep.useCheckpoint(ck)
	var c *dataset.Corpus
	var m *core.Model
	for k := 0; k < setupReps; k++ {
		var s float64
		c, m, s, err = setupRank(ck)
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, s)
	}
	cases := labeledCases(c)
	inputs := make([]core.Input, len(cases))
	for i, lc := range cases {
		inputs[i] = lc.in
	}
	rng := rand.New(rand.NewSource(e.seed))
	facts := 0
	for _, in := range inputs {
		facts += len(in.Lineage)
	}

	// Whole passes over every labeled case, each in its own seeded order,
	// until --seconds have passed and the printed p99 is supported. Whole
	// passes give every lineage the same number of samples; the fresh order
	// spreads each lineage's samples over the run. Every output is compared
	// with the first pass's output for the same case; each pass's scores are
	// hashed in canonical order and the hashes must agree.
	first := make([]shapley.Values, len(cases))
	cur := make([]shapley.Values, len(cases))
	var passHashes []uint64
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < e.seconds || len(rep.ops) < minOps; pass++ {
		for _, ci := range rng.Perm(len(cases)) {
			in := inputs[ci]
			id := uint64(pass*len(cases) + ci + 1)
			sp := e.tr.begin("core.RankOn", id, 0)
			t0 := time.Now()
			vals := m.RankOn(c.DB, in)
			d := time.Since(t0)
			e.tr.end(sp)
			var err error
			if pass == 0 {
				first[ci] = vals
			} else if !sameValues(vals, first[ci]) {
				err = fmt.Errorf("case %d: pass %d scores differ from pass 1", ci, pass+1)
			}
			rep.check(err)
			rep.ops = append(rep.ops, opSample{ms: float64(d.Nanoseconds()) / 1e6, ok: err == nil, item: ci})
			cur[ci] = vals
		}
		h := fnv.New64a()
		hashValues(h, inputs, cur)
		passHashes = append(passHashes, h.Sum64())
	}
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(c)
	runtime.KeepAlive(m)
	for i, h := range passHashes[1:] {
		if h != passHashes[0] {
			rep.check(fmt.Errorf("pass %d score hash %016x differs from pass 1 %016x", i+2, h, passHashes[0]))
		} else {
			rep.check(nil)
		}
	}
	ndcg := 0.0
	for i, lc := range cases {
		ndcg += metrics.NDCGAtK(first[i], lc.gold, 10)
	}
	ndcg /= float64(len(cases))

	rep.tput = float64(facts) / (itemMedianSum(rep.ops) / 1e3)
	lat := latencies(rep.ops)
	rep.add("lineage_p50_ms", finite(typicalMS(rep.ops)), "ms", "(Harrell-Davis median across lineages of each lineage's fastest call; op_p50_ms)")
	rep.add("lineage_p95_ms", finite(tailMS(rep.ops)), "ms", "(Harrell-Davis p95 across lineages of per-lineage medians; op_p95_ms)")
	rep.add("lineage_p99_ms", finite(quantile(lat, 0.99)), "ms", "(over all calls)")
	rep.add("facts_per_s", rep.tput, "1/s", "(facts of one pass / sum of per-lineage median times; throughput_per_s)")
	rep.add("ndcg_at_10", ndcg, "", "(mean over labeled cases vs exact gold labels)")
	rep.notef("%d labeled cases, %d complete passes, score hash %016x identical across passes: %v",
		len(cases), len(passHashes), passHashes[0], allEqual(passHashes))
	rep.raw["lineage_ms"] = latencyValues(rep.ops)
	rep.raw["pass_hashes"] = passHashes
	if e.traced() {
		rep.layers = rankLayers(e, rep, c, m, cases)
	}
	return rep, nil
}

func allEqual(xs []uint64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// latencyValues returns the samples as [lineage, latency ms] pairs in
// operation order, with latency -1 for a failed operation (JSON has no
// infinity).
func latencyValues(samples []opSample) [][2]float64 {
	out := make([][2]float64, len(samples))
	for i, s := range samples {
		out[i] = [2]float64{float64(s.item), s.ms}
		if !s.ok {
			out[i][1] = -1
		}
	}
	return out
}
