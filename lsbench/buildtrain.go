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
	"repro/internal/shapley"
	"repro/internal/shapley/approx"
)

// labelHash hashes every labeled case's exact Shapley values, in canonical
// case order and lineage order, bit for bit.
func labelHash(c *dataset.Corpus) uint64 {
	cases := labeledCases(c)
	inputs := make([]core.Input, len(cases))
	gold := make([]shapley.Values, len(cases))
	for i, lc := range cases {
		inputs[i] = lc.in
		gold[i] = lc.gold
	}
	h := fnv.New64a()
	hashValues(h, inputs, gold)
	return h.Sum64()
}

func runBuildTrain(e *env) (*report, error) {
	rep := &report{raw: map[string]any{}}
	// Set-up is the offline user's first step, dbshap-gen: dataset.Build of
	// the default Academic corpus with the default exact labeler. Every
	// build's label hash must agree.
	var c *dataset.Corpus
	var hashes []uint64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		var err error
		c, err = dataset.Build(dataset.DefaultConfig(dataset.Academic))
		if err != nil {
			return nil, err
		}
		rep.setupS = append(rep.setupS, time.Since(t0).Seconds())
		hashes = append(hashes, labelHash(c))
		if hashes[k] != hashes[0] {
			rep.check(fmt.Errorf("build %d label hash %016x differs from build 1 %016x", k+1, hashes[k], hashes[0]))
		} else {
			rep.check(nil)
		}
	}
	cases := labeledCases(c)
	labelRate := float64(c.Labels.Labeled) / median(rep.setupS)

	// The seed orders the training split handed to core.Train and the
	// relabeling passes; the corpus itself is the program's default.
	rng := rand.New(rand.NewSource(e.seed))
	trainIdx := append([]int(nil), c.Train...)
	rng.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	cfg := trainConfig()

	// Timed phase, repeated until --seconds have passed and the printed p99 is
	// supported: one core.Train (the second offline step, tune), then one
	// pass of approx.Exact{}.Label over every labeled lineage — the labeling
	// call dataset.Build makes per case — timed per call and checked
	// bitwise against the corpus's labels.
	var trainS, bestNDCG []float64
	var model *core.Model
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < e.seconds || len(rep.ops) < minOps; r++ {
		// Collect the previous phase's garbage first, so neither phase pays
		// for the other's.
		runtime.GC()
		sp := e.tr.begin("core.Train", uint64(r+1), 0)
		t0 := time.Now()
		var tr *core.TrainReport
		var err error
		model, tr, err = core.Train(c, dataset.NewSimilarityCache(c), cfg, trainIdx)
		d := time.Since(t0)
		e.tr.end(sp)
		rep.check(err)
		if err != nil {
			break
		}
		trainS = append(trainS, d.Seconds())
		bestNDCG = append(bestNDCG, tr.BestDevNDCG)
		if math.Float64bits(tr.BestDevNDCG) != math.Float64bits(bestNDCG[0]) {
			rep.check(fmt.Errorf("training %d: best dev NDCG %v differs from training 1 (%v)", r+1, tr.BestDevNDCG, bestNDCG[0]))
		}
		runtime.GC()
		for _, ci := range rng.Perm(len(cases)) {
			lc := cases[ci]
			dnf := c.Queries[lc.qi].Cases[lc.ci].Tuple.Prov
			id := uint64(1<<32 + r*len(cases) + ci + 1)
			sp := e.tr.begin("approx.Exact.Label", id, 0)
			t0 := time.Now()
			vals, err := approx.Exact{}.Label(dnf, 0)
			d := time.Since(t0)
			e.tr.end(sp)
			if err == nil && !sameValues(vals, lc.gold) {
				err = fmt.Errorf("case %d: exact relabel differs from the corpus label", ci)
			}
			rep.check(err)
			rep.ops = append(rep.ops, opSample{ms: float64(d.Nanoseconds()) / 1e6, ok: err == nil, item: ci})
		}
	}
	rep.heapMB = liveHeapMB()
	runtime.KeepAlive(c)
	runtime.KeepAlive(model)
	samples := float64(trainSamples(cfg))
	rates := make([]float64, len(trainS))
	for i, s := range trainS {
		rates[i] = samples / s
	}
	rep.tput = median(rates)
	lat := latencies(rep.ops)
	rep.add("label_cases_per_s", labelRate, "1/s", fmt.Sprintf("(%d cases / median dataset.Build; setup_s)", c.Labels.Labeled))
	rep.add("train_samples_per_s", rep.tput, "1/s", fmt.Sprintf("(%.0f samples per core.Train, median of %d; throughput_per_s)", samples, len(trainS)))
	rep.add("exact_label_p50_ms", finite(typicalMS(rep.ops)), "ms", "(Harrell-Davis median across lineages of each lineage's fastest call; op_p50_ms)")
	rep.add("exact_label_p95_ms", finite(tailMS(rep.ops)), "ms", "(Harrell-Davis p95 across lineages of per-lineage medians; op_p95_ms)")
	rep.add("exact_label_p99_ms", finite(quantile(lat, 0.99)), "ms", "(per lineage)")
	if len(bestNDCG) > 0 {
		rep.add("best_dev_ndcg_at_10", bestNDCG[0], "", "(core.Train report)")
	}
	rep.notef("label hash %016x identical across %d builds: %v", hashes[0], len(hashes), allEqual(hashes))
	rep.notef("train schedule: pretrain %dx%d pairs, finetune %dx%d samples, workers %d",
		cfg.PretrainEpochs, cfg.PretrainPairsPerEpoch, cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch, cfg.Workers)
	rep.raw["train_s"] = trainS
	rep.raw["train_samples_per_s"] = rates
	rep.raw["exact_label_ms"] = latencyValues(rep.ops)
	rep.raw["label_hashes"] = hashes
	if e.traced() {
		rep.layers = buildTrainLayers(e, rep, c, cfg, trainIdx)
	}
	return rep, nil
}
