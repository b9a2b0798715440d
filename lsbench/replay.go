package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tokenizer"
)

// core.Model does not export its encoder, so the nn split of ranking time
// comes from a replay: the public sublayers run on the model's dimensions
// over the workload's histogram of sequence shapes, and each sublayer's time
// is charged per fact. replayLow..replayHigh is the stated tolerance of the
// replay's total against the measured core.rank_us_per_fact (which also holds
// tokenization, map writes and the per-lineage set-up the replay omits).
const (
	replayLow  = 0.75
	replayHigh = 1.25
	replayReps = 5 // timings per shape; the median is kept
)

// prefixShape is a fact scored on the shared-prefix path: prefix rows
// ([CLS] q [SEP] t [SEP]) and suffix rows (fact tokens + [SEP]).
type prefixShape struct{ prefix, suffix int }

// shapeHist is a workload's ranking shapes, derived exactly as core decides
// them: tokenizer.TokenizeSQL / TokenizeValues / TokenizeFact lengths fitted
// with tokenizer.FitLengths; a fact whose fit trims the query or tuple falls
// back to a full, padded Forward.
type shapeHist struct {
	prefix   map[prefixShape]int
	lineages map[int]int // prefix length -> lineages with >= 1 prefix-path fact
	fallback map[int]int // real (unpadded) length -> fallback facts
	facts    int
}

func (h shapeHist) fallbackFacts() int {
	n := 0
	for _, c := range h.fallback {
		n += c
	}
	return n
}

func deriveShapes(c *dataset.Corpus, cases []labeledCase, maxSeq int) shapeHist {
	h := shapeHist{prefix: map[prefixShape]int{}, lineages: map[int]int{}, fallback: map[int]int{}}
	lens := make([]int, 3)
	for _, lc := range cases {
		q := len(tokenizer.TokenizeSQL(lc.in.SQL))
		t := len(tokenizer.TokenizeValues(lc.in.TupleValues))
		pre := 1 + q + 1 + t + 1
		eligible := false
		for _, id := range lc.in.Lineage {
			f := c.DB.Fact(id)
			if f == nil {
				continue
			}
			h.facts++
			lens[0], lens[1], lens[2] = q, t, len(tokenizer.TokenizeFact(f))
			tokenizer.FitLengths(maxSeq, lens)
			if lens[0] != q || lens[1] != t {
				h.fallback[lens[0]+lens[1]+lens[2]+4]++
				continue
			}
			h.prefix[prefixShape{pre, lens[2] + 1}]++
			eligible = true
		}
		if eligible {
			h.lineages[pre]++
		}
	}
	return h
}

// mflopPerFact counts the multiply-adds of every matrix product a fact's
// forward pass runs — Q/K/V/O projections, both FFN layers, attention scores
// and context, and the head — from tensor shapes, as 2 flops each.
func (h shapeHist) mflopPerFact(cfg core.ModelConfig) float64 {
	d, f, layers := float64(cfg.Dim), float64(cfg.FFNHidden), float64(cfg.Layers)
	perFact := func(rows, keys float64) float64 {
		return layers*(2*rows*d*d*4+2*rows*d*f*2+2*rows*keys*d*2) + 2*d
	}
	total := 0.0
	for s, n := range h.prefix {
		rows := float64(s.prefix + s.suffix)
		total += float64(n) * perFact(rows, rows)
	}
	for real, n := range h.fallback {
		total += float64(n) * perFact(float64(cfg.MaxSeqLen), float64(real))
	}
	return ratio(total, float64(h.facts)) / 1e6
}

// inferenceSplit is the replayed time, summed over a workload's facts, of
// each sublayer.
type inferenceSplit struct {
	parts  map[string]time.Duration
	whole  time.Duration // ForwardWithPrefix + head, and fallback Forward + head
	facts  int
	shapes int
}

var splitNames = []string{
	"nn.embed_us", "nn.qkv_proj_us", "nn.attn_scores_softmax_us", "nn.attn_context_us",
	"nn.out_proj_us", "nn.ffn_us", "nn.layernorm_us", "nn.head_us", "nn.fallback_forward_us",
}

func (s inferenceSplit) perFact() map[string]float64 {
	out := make(map[string]float64, len(splitNames)+1)
	for _, n := range splitNames {
		out[n] = ratio(durUS(s.parts[n]), float64(s.facts))
	}
	out["nn.unattributed_us"] = s.wholePerFact() - s.totalPerFact()
	return out
}

func (s inferenceSplit) totalPerFact() float64 {
	var t time.Duration
	for _, n := range splitNames {
		t += s.parts[n]
	}
	return ratio(durUS(t), float64(s.facts))
}

func (s inferenceSplit) wholePerFact() float64 { return ratio(durUS(s.whole), float64(s.facts)) }

// replayNet is a randomly initialized network with a model's dimensions; the
// sublayers' costs depend on shapes, not on weight values.
type replayNet struct {
	cfg  core.ModelConfig
	enc  *nn.Encoder
	attn *nn.MultiHeadAttention
	ffn  *nn.FFN
	ln   *nn.LayerNorm
	head *nn.RegressionHead
	ws   *nn.Workspace
	rng  *rand.Rand
}

func newReplayNet(cfg core.ModelConfig) *replayNet {
	ps := &nn.Params{}
	rng := rand.New(rand.NewSource(1))
	return &replayNet{
		cfg: cfg,
		enc: nn.NewEncoder(nn.Config{
			VocabSize: cfg.VocabSize, MaxSeqLen: cfg.MaxSeqLen, Dim: cfg.Dim,
			Heads: cfg.Heads, Layers: cfg.Layers, FFNHidden: cfg.FFNHidden, Segments: 3,
		}, ps, rng),
		attn: nn.NewMultiHeadAttention(ps, "replay.attn", cfg.Dim, cfg.Heads, rng),
		ffn:  nn.NewFFN(ps, "replay.ffn", cfg.Dim, cfg.FFNHidden, rng),
		ln:   nn.NewLayerNorm(ps, "replay.ln", cfg.Dim),
		head: nn.NewRegressionHead(ps, "replay.head", cfg.Dim, rng),
		ws:   nn.NewWorkspace(),
		rng:  rng,
	}
}

func (r *replayNet) tokens(n, seg int) (toks, segs []int) {
	toks, segs = make([]int, n), make([]int, n)
	for i := range toks {
		toks[i] = 5 + r.rng.Intn(r.cfg.VocabSize-5)
		segs[i] = seg
	}
	return toks, segs
}

func (r *replayNet) randMat(rows int) *nn.Mat {
	m := nn.NewMat(rows, r.cfg.Dim)
	for i := range m.Data {
		m.Data[i] = r.rng.NormFloat64()
	}
	return m
}

func trueMask(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// timeMedian runs fn replayReps times and returns the median duration.
func timeMedian(fn func()) time.Duration {
	ds := make([]float64, replayReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// blockSplit times the sublayers of one transformer block over x [n×Dim]
// with every position real, as the prefix path runs them.
func (r *replayNet) blockSplit(x *nn.Mat) map[string]time.Duration {
	n := x.Rows
	mask := trueMask(n)
	a := r.attn
	dk := r.cfg.Dim / r.cfg.Heads
	scale := 1 / math.Sqrt(float64(dk))
	var q, k *nn.Mat
	out := map[string]time.Duration{}
	out["nn.qkv_proj_us"] = timeMedian(func() {
		r.ws.Reset()
		q, k = a.Wq.Forward(r.ws, x), a.Wk.Forward(r.ws, x)
		a.Wv.Forward(r.ws, x)
	})
	scores := nn.NewMat(n, n)
	out["nn.attn_scores_softmax_us"] = timeMedian(func() {
		for h := 0; h < r.cfg.Heads; h++ {
			nn.AttnScoresSoftmax(q, k, h*dk, dk, scale, mask, scores)
		}
	})
	out["nn.out_proj_us"] = timeMedian(func() { r.ws.Reset(); a.Wo.Forward(r.ws, x) })
	whole := timeMedian(func() { r.ws.Reset(); a.Forward(r.ws, x, mask) })
	ctx := whole - out["nn.qkv_proj_us"] - out["nn.attn_scores_softmax_us"] - out["nn.out_proj_us"]
	if ctx < 0 {
		ctx = 0
	}
	out["nn.attn_context_us"] = ctx
	out["nn.layernorm_us"] = 2 * timeMedian(func() { r.ws.Reset(); r.ln.Forward(r.ws, x) })
	out["nn.ffn_us"] = timeMedian(func() { r.ws.Reset(); r.ffn.Forward(r.ws, x) })
	return out
}

// replayInference replays every shape of h and charges each sublayer's time
// by how many facts (or lineages, for the shared prefix embedding) have the
// shape.
func replayInference(cfg core.ModelConfig, h shapeHist) inferenceSplit {
	r := newReplayNet(cfg)
	s := inferenceSplit{parts: map[string]time.Duration{}, facts: h.facts}
	add := func(name string, d time.Duration, n int) { s.parts[name] += d * time.Duration(n) }
	for _, pre := range sortedKeys(h.lineages) {
		toks, segs := r.tokens(pre, 0)
		add("nn.embed_us", timeMedian(func() { r.enc.EmbedPrefix(toks, segs) }), h.lineages[pre])
	}
	shapes := make([]prefixShape, 0, len(h.prefix))
	for sh := range h.prefix {
		shapes = append(shapes, sh)
	}
	sort.Slice(shapes, func(i, j int) bool {
		if shapes[i].prefix != shapes[j].prefix {
			return shapes[i].prefix < shapes[j].prefix
		}
		return shapes[i].suffix < shapes[j].suffix
	})
	for _, sh := range shapes {
		n := h.prefix[sh]
		rows := sh.prefix + sh.suffix
		sufToks, sufSegs := r.tokens(sh.suffix, 2)
		add("nn.embed_us", timeMedian(func() { r.enc.EmbedPrefix(sufToks, sufSegs) }), n)
		x := r.randMat(rows)
		for name, d := range r.blockSplit(x) {
			add(name, d*time.Duration(cfg.Layers), n)
		}
		add("nn.head_us", timeMedian(func() { r.head.ForwardAt(x, 0) }), n)
		preToks, preSegs := r.tokens(sh.prefix, 0)
		pc := r.enc.EmbedPrefix(preToks, preSegs)
		mask := trueMask(rows)
		s.whole += time.Duration(n) * timeMedian(func() {
			r.head.ForwardAt(r.enc.ForwardWithPrefix(pc, sufToks, sufSegs, mask), 0)
		})
		s.shapes++
	}
	for _, real := range sortedKeys(h.fallback) {
		n := h.fallback[real]
		toks, segs := r.tokens(cfg.MaxSeqLen, 1)
		mask := make([]bool, cfg.MaxSeqLen)
		for i := 0; i < real && i < len(mask); i++ {
			mask[i] = true
		}
		d := timeMedian(func() { r.head.ForwardAt(r.enc.Forward(toks, segs, mask), 0) })
		add("nn.fallback_forward_us", d, n)
		s.whole += d * time.Duration(n)
		s.shapes++
	}
	return s
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// trainShapes is the real-length histogram of one core.Train schedule:
// fine-tuning samples ([CLS] q [SEP] t [SEP] f [SEP] over the training cases'
// facts) and pre-training pairs ([CLS] q [SEP] q' [SEP] over training
// queries), weighted by the schedule's sample and pair counts. Every
// training sequence is padded to MaxSeqLen; the real length sets the mask.
func trainShapes(c *dataset.Corpus, cfg core.ModelConfig, trainIdx []int) map[int]float64 {
	fine := map[int]int{}
	total := 0
	lens3 := make([]int, 3)
	for _, qi := range trainIdx {
		q := c.Queries[qi]
		ql := len(tokenizer.TokenizeSQL(q.SQL))
		for _, cs := range q.Cases {
			tl := len(tokenizer.TokenizeValues(cs.Tuple.Values))
			for id := range cs.Gold {
				lens3[0], lens3[1], lens3[2] = ql, tl, len(tokenizer.TokenizeFact(c.DB.Fact(id)))
				tokenizer.FitLengths(cfg.MaxSeqLen, lens3)
				fine[lens3[0]+lens3[1]+lens3[2]+4]++
				total++
			}
		}
	}
	pre := map[int]int{}
	preTotal := 0
	lens2 := make([]int, 2)
	for _, a := range trainIdx {
		for _, b := range trainIdx {
			lens2[0] = len(tokenizer.TokenizeSQL(c.Queries[a].SQL))
			lens2[1] = len(tokenizer.TokenizeSQL(c.Queries[b].SQL))
			tokenizer.FitLengths(cfg.MaxSeqLen, lens2)
			pre[lens2[0]+lens2[1]+3]++
			preTotal++
		}
	}
	fineW := float64(cfg.FinetuneEpochs * cfg.FinetuneSamplesPerEpoch)
	preW := float64(cfg.PretrainEpochs * cfg.PretrainPairsPerEpoch)
	out := map[int]float64{}
	for l, n := range fine {
		out[l] += fineW * float64(n) / float64(total)
	}
	for l, n := range pre {
		out[l] += preW * float64(n) / float64(preTotal)
	}
	return out
}

// replayTraining returns the weighted mean time, in microseconds, of one
// training sample's Forward + head + head Backward + Backward over the
// padded length histogram.
func replayTraining(cfg core.ModelConfig, hist map[int]float64) float64 {
	r := newReplayNet(cfg)
	lens := make([]int, 0, len(hist))
	for l := range hist {
		lens = append(lens, l)
	}
	sort.Ints(lens)
	var total, weight float64
	for _, real := range lens {
		toks, segs := r.tokens(cfg.MaxSeqLen, 1)
		mask := make([]bool, cfg.MaxSeqLen)
		for i := 0; i < real && i < len(mask); i++ {
			mask[i] = true
		}
		d := timeMedian(func() {
			hidden := r.enc.Forward(toks, segs, mask)
			pred := r.head.ForwardAt(hidden, 0)
			r.enc.Backward(r.head.Backward(pred, hidden.Rows, hidden.Cols))
		})
		total += durUS(d) * hist[real]
		weight += hist[real]
	}
	return ratio(total, weight)
}
