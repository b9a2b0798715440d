package main

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
)

// layerMetric is one row of the per-layer table: the metric, its unit, and
// the end-to-end metric and workload it should move (README.md repeats the
// table with reasons).
type layerMetric struct {
	name, unit, moves string
}

var layerTable = []layerMetric{
	{"serve.queue_wait_ms.p99", "ms", "op_p95_ms on serve-imdb"},
	{"serve.score_ms.p99", "ms", "op_p95_ms on serve-imdb"},
	{"serve.batch_wait_ms.p50", "ms", "op_p50_ms on serve-imdb"},
	{"serve.score_ms.p50", "ms", "op_p50_ms and throughput_per_s on serve-imdb"},
	{"serve.write_ms.p50", "ms", "op_p50_ms on serve-imdb"},
	{"serve.batch_size_mean", "count", "op_p95_ms and throughput_per_s on serve-imdb"},
	{"serve.packed_share", "ratio", "op_p95_ms and throughput_per_s on serve-imdb"},
	{"loadgen.lag_ms.p99", "ms", "nothing (validity check of the generator)"},
	{"sqlparse.parse_us.p50", "us", "op_p50_ms on serve-imdb"},
	{"engine.evaluate_ms.p50", "ms", "op_p50_ms on serve-imdb; setup_s on build-train-academic"},
	{"engine.evaluate_ms.p99", "ms", "op_p95_ms on serve-imdb; setup_s on build-train-academic"},
	{"core.rank_us_per_fact", "us", "throughput_per_s on rank-academic and serve-imdb; op_p95_ms on serve-imdb"},
	{"core.prefix_fallback_share", "ratio", "throughput_per_s and op_p95_ms on rank-academic"},
	{"core.train.vocabulary_s", "s", "throughput_per_s on build-train-academic"},
	{"core.train.pretrain_s", "s", "throughput_per_s on build-train-academic"},
	{"core.train.finetune_s", "s", "throughput_per_s on build-train-academic"},
	{"nn.forward_passes_per_fact", "count", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.tokens_per_fact", "count", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.embed_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.qkv_proj_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.attn_scores_softmax_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.attn_context_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.out_proj_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.ffn_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.layernorm_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.head_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.fallback_forward_us", "us", "throughput_per_s and op_p95_ms on rank-academic"},
	{"nn.unattributed_us", "us", "nothing (replay residue: residual adds, copies)"},
	{"nn.replay_vs_measured", "ratio", "nothing (replay cross-check against core.rank_us_per_fact)"},
	{"nn.gemm_mflop_per_fact", "MFLOP", "throughput_per_s on rank-academic (computed from tensor shapes)"},
	{"nn.train_step_us", "us", "throughput_per_s on build-train-academic only"},
	{"shapley.exact_ms.p50", "ms", "op_p50_ms and setup_s on build-train-academic"},
	{"shapley.exact_ms.p99", "ms", "op_p95_ms and setup_s on build-train-academic"},
	{"shapley.circuit_nodes.p50", "count", "op_p50_ms and setup_s on build-train-academic"},
	{"shapley.fallback_share", "ratio", "setup_s on build-train-academic"},
	{"dataset.build.generate_s", "s", "setup_s on build-train-academic"},
	{"dataset.build.evaluate_s", "s", "setup_s on build-train-academic"},
	{"dataset.build.label_s", "s", "setup_s on build-train-academic"},
	{"dataset.simcache.hit_share", "ratio", "throughput_per_s on build-train-academic"},
	{"sims.precompute_s", "s", "throughput_per_s on build-train-academic"},
	{"parallel.pool.utilization", "ratio", "throughput_per_s and setup_s on build-train-academic; op_p95_ms on serve-imdb"},
}

// layerMoves maps a per-layer metric to the end-to-end metric it should move.
var layerMoves = func() map[string]string {
	m := map[string]string{
		"trace.overhead.op_p50_ms":        "nothing (traced minus untraced op_p50_ms)",
		"trace.overhead.op_p95_ms":        "nothing (traced minus untraced op_p95_ms)",
		"trace.overhead.throughput_share": "nothing (traced vs untraced throughput_per_s)",
	}
	for _, l := range layerTable {
		m[l.name] = l.moves
	}
	return m
}()

// layerNotes flags the metrics that are estimates or computed rather than
// measured.
var layerNotes = map[string]string{
	"serve.queue_wait_ms.p99":   "bucket-interpolated from the server's histogram",
	"serve.score_ms.p99":        "bucket-interpolated from the server's histogram",
	"serve.batch_wait_ms.p50":   "bucket-interpolated from the server's histogram",
	"serve.score_ms.p50":        "bucket-interpolated from the server's histogram",
	"serve.write_ms.p50":        "bucket-interpolated from the server's histogram",
	"serve.packed_share":        "packed replica slices / slices dispatched",
	"shapley.circuit_nodes.p50": "bucket-interpolated from the program's histogram",
	"nn.gemm_mflop_per_fact":    "computed from tensor shapes, not measured",
	"nn.embed_us":               "replayed self time per fact",
	"nn.qkv_proj_us":            "replayed self time per fact",
	"nn.attn_scores_softmax_us": "replayed self time per fact",
	"nn.attn_context_us":        "replayed self time per fact",
	"nn.out_proj_us":            "replayed self time per fact",
	"nn.ffn_us":                 "replayed self time per fact",
	"nn.layernorm_us":           "replayed self time per fact",
	"nn.head_us":                "replayed self time per fact",
	"nn.fallback_forward_us":    "replayed self time per fact",
	"nn.train_step_us":          "replayed Forward+Backward per training sample",
}

func layerNote(name string) string {
	if n, ok := layerNotes[name]; ok {
		return " (" + n + ")"
	}
	return ""
}

// spanStats summarizes the self times of the benchmark's spans of one name,
// in ms: sorted, and their sum.
func spanStats(spans []span, name string) (sorted []float64, sumMS float64) {
	sorted = byName(spans, name, selfTimes(spans))
	for _, v := range sorted {
		sumMS += v
	}
	sort.Float64s(sorted)
	return sorted, sumMS
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// obsSpanSeconds returns the median duration, in seconds, of the program's
// obs spans named child under any span named parent.
func obsSpanSeconds(root *obs.SpanNode, parent, child string) float64 {
	var durs []float64
	var walk func(n *obs.SpanNode, under bool)
	walk = func(n *obs.SpanNode, under bool) {
		if under && n.Name == child {
			durs = append(durs, n.DurationMS/1e3)
		}
		for _, c := range n.Children {
			walk(c, under || strings.HasPrefix(n.Name, parent))
		}
	}
	walk(root, false)
	return median(durs)
}

// packedShare is serve.batch.packed (replica slices scored through
// core.RankMany) over the slices the dispatcher hands out, min(workers, batch
// size) per batch. Slices are counted from the batch-size histogram, exact
// while workers <= 2 (every bucket then maps to one slice count) and an upper
// bound otherwise.
func packedShare(snap obs.Snapshot, workers int) float64 {
	h := snap.Histograms["serve.batch.size"]
	slices := 0.0
	for _, b := range h.Buckets {
		ub := float64(workers)
		if b.UpperBound != "+Inf" {
			if v, err := strconv.ParseFloat(b.UpperBound, 64); err == nil && v < ub {
				ub = v
			}
		}
		slices += float64(b.Count) * ub
	}
	return ratio(float64(snap.Counters["serve.batch.packed"]), slices)
}

// replayMix replays parse and evaluate over sqls until at least minOps of
// each are timed, as spans of one operation per query.
func replayMix(e *env, c *dataset.Corpus, sqls []string) {
	id := uint64(1 << 40)
	for n := 0; n < minOps; {
		for _, sql := range sqls {
			id++
			root := e.tr.begin("replay.query", id, 0)
			replayParseEvaluate(e, c, sql, id, root)
			e.tr.end(root)
			n++
		}
	}
}

// mixLayers fills the sqlparse and engine rows from replayed spans.
func mixLayers(out map[string]float64, spans []span) {
	parse, _ := spanStats(spans, "sqlparse.Parse")
	eval, _ := spanStats(spans, "engine.Evaluate")
	out["sqlparse.parse_us.p50"] = quantile(parse, 0.5) * 1e3
	out["engine.evaluate_ms.p50"] = quantile(eval, 0.5)
	out["engine.evaluate_ms.p99"] = quantile(eval, 0.99)
}

func serveLayers(e *env, rep *report, st *serveState, lagSorted []float64) map[string]float64 {
	sqls := make([]string, len(st.inputs))
	for i, in := range st.inputs {
		sqls[i] = in.SQL
	}
	replayMix(e, st.corpus, sqls)
	snap := e.reg.Snapshot()
	spans := e.tr.snapshot()
	h := snap.Histograms
	out := map[string]float64{
		"serve.queue_wait_ms.p99":    histQuantile(h["serve.stage.queue_wait_ms"], 0.99),
		"serve.score_ms.p99":         histQuantile(h["serve.stage.score_ms"], 0.99),
		"serve.batch_wait_ms.p50":    histQuantile(h["serve.stage.batch_wait_ms"], 0.5),
		"serve.score_ms.p50":         histQuantile(h["serve.stage.score_ms"], 0.5),
		"serve.write_ms.p50":         histQuantile(h["serve.stage.write_ms"], 0.5),
		"serve.batch_size_mean":      h["serve.batch.size"].Mean,
		"serve.packed_share":         packedShare(snap, runtime.NumCPU()),
		"loadgen.lag_ms.p99":         quantile(lagSorted, 0.99),
		"core.prefix_fallback_share": fallbackShare(snap),
		"parallel.pool.utilization":  h["parallel.pool.utilization"].Mean,
	}
	mixLayers(out, spans)
	_, rankMS := spanStats(spans, "core.RankOn")
	facts := 0
	for _, in := range st.inputs {
		facts += len(in.Lineage)
	}
	out["core.rank_us_per_fact"] = ratio(rankMS*1e3, float64(facts))
	rep.notef("core.rank_us_per_fact is from the sequential reference pass over the request mix; engine and sqlparse rows from %d replayed queries", minOps)
	return out
}

func fallbackShare(snap obs.Snapshot) float64 {
	hits := float64(snap.Counters["core.rank.prefix_hits"])
	fb := float64(snap.Counters["core.rank.prefix_fallbacks"])
	return ratio(fb, hits+fb)
}

func rankLayers(e *env, rep *report, c *dataset.Corpus, m *core.Model, cases []labeledCase) map[string]float64 {
	snap := e.reg.Snapshot()
	spans := e.tr.snapshot()
	facts := float64(snap.Counters["core.rank.facts"])
	_, rankMS := spanStats(spans, "core.RankOn")
	measured := ratio(rankMS*1e3, facts)
	out := map[string]float64{
		"core.rank_us_per_fact":      measured,
		"core.prefix_fallback_share": fallbackShare(snap),
		"nn.forward_passes_per_fact": ratio(float64(snap.Counters["nn.encoder.forward_passes"]), facts),
		"nn.tokens_per_fact":         ratio(float64(snap.Counters["nn.encoder.tokens"]), facts),
	}
	hist := deriveShapes(c, cases, m.Cfg.MaxSeqLen)
	derived := ratio(float64(hist.fallbackFacts()), float64(hist.facts))
	rep.notef("fallback share derived with tokenizer.FitLengths %.6f vs counted by core %.6f", derived, out["core.prefix_fallback_share"])
	if derived != out["core.prefix_fallback_share"] {
		// The derivation copies core's eligibility rule; a mismatch means
		// the replay's shapes no longer follow the program, not that the
		// program's output is wrong.
		rep.notef("WARNING: the replay's fallback rule no longer matches core's count; the nn split replays other shapes than the workload's")
	}
	split := replayInference(m.Cfg, hist)
	for k, v := range split.perFact() {
		out[k] = v
	}
	out["nn.gemm_mflop_per_fact"] = hist.mflopPerFact(m.Cfg)
	total := split.totalPerFact()
	out["nn.replay_vs_measured"] = ratio(total, measured)
	rep.notef("nn replay: %.1f us/fact in %d shapes (whole-pass replay %.1f us/fact) vs measured core.rank_us_per_fact %.1f: ratio %.3f, tolerance [%.2f, %.2f]",
		total, split.shapes, split.wholePerFact(), measured, out["nn.replay_vs_measured"], replayLow, replayHigh)
	if r := out["nn.replay_vs_measured"]; r < replayLow || r > replayHigh {
		rep.notef("WARNING: nn replay total is outside the stated tolerance of the measured per-fact time")
	}
	return out
}

func buildTrainLayers(e *env, rep *report, c *dataset.Corpus, cfg core.ModelConfig, trainIdx []int) map[string]float64 {
	sqls := make([]string, len(c.Queries))
	for i, q := range c.Queries {
		sqls[i] = q.SQL
	}
	replayMix(e, c, sqls)
	snap := e.reg.Snapshot()
	spans := e.tr.snapshot()
	root := e.otr.Root()
	exact, _ := spanStats(spans, "approx.Exact.Label")
	hits := float64(snap.Counters["dataset.simcache.hits"])
	misses := float64(snap.Counters["dataset.simcache.misses"])
	out := map[string]float64{
		"shapley.exact_ms.p50":       quantile(exact, 0.5),
		"shapley.exact_ms.p99":       quantile(exact, 0.99),
		"shapley.circuit_nodes.p50":  histQuantile(snap.Histograms["shapley.exact.circuit_nodes"], 0.5),
		"shapley.fallback_share":     ratio(float64(c.Labels.Fallback), float64(c.Labels.Labeled)),
		"dataset.build.generate_s":   obsSpanSeconds(root, "dataset.build:", "generate"),
		"dataset.build.evaluate_s":   obsSpanSeconds(root, "dataset.build:", "evaluate"),
		"dataset.build.label_s":      obsSpanSeconds(root, "dataset.build:", "shapley.label"),
		"dataset.simcache.hit_share": ratio(hits, hits+misses),
		"sims.precompute_s":          obsSpanSeconds(root, "core.train:", "sims.precompute"),
		"core.train.vocabulary_s":    obsSpanSeconds(root, "core.train:", "vocabulary"),
		"core.train.pretrain_s":      obsSpanSeconds(root, "core.train:", "core.pretrain"),
		"core.train.finetune_s":      obsSpanSeconds(root, "core.train:", "core.finetune"),
		"parallel.pool.utilization":  snap.Histograms["parallel.pool.utilization"].Mean,
	}
	mixLayers(out, spans)
	out["nn.train_step_us"] = replayTraining(cfg, trainShapes(c, cfg, trainIdx))
	rep.notef("engine and sqlparse rows replay the corpus's %d queries to %d samples; nn.train_step_us replays the training length histogram", len(sqls), minOps)
	return out
}

func durUS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
