package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
	"repro/internal/tokenizer"
)

// lineageScorer scores the facts of one lineage against a fixed (query, tuple)
// pair. All facts of a lineage share the packed prefix
//
//	[CLS] q [SEP] t [SEP]
//
// so the scorer tokenizes and encodes that prefix once (through the embedding
// layer, via nn.PrefixCache) and re-runs only the transformer blocks per fact,
// with the fact tokens appended as segment 2. Two further differences from the
// naive per-fact path, both provably bit-preserving for the [CLS] output row
// (see DESIGN.md "Memory model & kernels"):
//
//   - sequences are not padded to MaxSeqLen: attention masks padded keys out of
//     every softmax and all other layers are row-local, so trailing padding
//     rows never influence row 0;
//   - the prefix embedding rows are reused across facts: embeddings and
//     LayerNorm are row-local and the prefix occupies the same absolute
//     positions in every sequence of the lineage.
//
// The fast path applies only when Pack's truncation rule (tokenizer.FitLengths)
// would leave the query and tuple segments untrimmed; otherwise the fact
// segment is long enough to steal prefix budget, the shared prefix differs per
// fact, and the scorer falls back to the reference path (Model.predictShapley)
// for those facts — which is the same computation, just without reuse.
type lineageScorer struct {
	m            *Model
	qToks, tToks []string
	qLen, tLen   int

	pc        *nn.PrefixCache // built lazily on the first fast-path fact
	prefixLen int

	// Reusable per-fact buffers.
	suf, sufSeg []int
	mask        []bool
	lens        []int

	// Prefix-reuse effectiveness counters: facts scored through the shared
	// prefix vs. facts that fell back to the reference path because
	// truncation reached into the prefix. Resolved once per lineage; nil
	// (no-op) without a live registry.
	mHits, mFallbacks *obs.Counter
}

func newLineageScorer(m *Model, in Input) *lineageScorer {
	reg := obs.Metrics()
	s := &lineageScorer{
		m:          m,
		qToks:      tokenizer.TokenizeSQL(in.SQL),
		tToks:      tokenizer.TokenizeValues(in.TupleValues),
		lens:       make([]int, 3),
		mHits:      reg.Counter("core.rank.prefix_hits"),
		mFallbacks: reg.Counter("core.rank.prefix_fallbacks"),
	}
	s.qLen, s.tLen = len(s.qToks), len(s.tToks)
	return s
}

// buildPrefix encodes [CLS] q [SEP] t [SEP] through the embedding layer once.
func (s *lineageScorer) buildPrefix() {
	n := 1 + s.qLen + 1 + s.tLen + 1
	tokens := make([]int, 0, n)
	segs := make([]int, 0, n)
	push := func(id, seg int) {
		tokens = append(tokens, id)
		segs = append(segs, seg)
	}
	push(tokenizer.ClsID, 0)
	for _, id := range s.m.tok.Encode(s.qToks) {
		push(id, 0)
	}
	push(tokenizer.SepID, 0)
	for _, id := range s.m.tok.Encode(s.tToks) {
		push(id, 1)
	}
	push(tokenizer.SepID, 1)
	s.pc = s.m.enc.EmbedPrefix(tokens, segs)
	s.prefixLen = len(tokens)
}

// eligibleFactLen decides whether a fact with the given tokens can take the
// shared-prefix fast path and, if so, returns its (possibly trimmed) token
// count. The single source of truth for fast-path eligibility: the per-fact
// and batched rankers both route through it, so they fall back on exactly the
// same facts.
func (s *lineageScorer) eligibleFactLen(fToks []string) (int, bool) {
	s.lens[0], s.lens[1], s.lens[2] = s.qLen, s.tLen, len(fToks)
	tokenizer.FitLengths(s.m.Cfg.MaxSeqLen, s.lens)
	if s.lens[0] != s.qLen || s.lens[1] != s.tLen {
		// Truncation reached into the shared prefix: the prefix would differ
		// for this fact, so reuse is unsound.
		return 0, false
	}
	return s.lens[2], true
}

// score predicts the (unscaled) Shapley value of one fact from its tokens
// (cached per fact by Model.tokensForFact at the call sites).
func (s *lineageScorer) score(fToks []string) float64 {
	fLen, ok := s.eligibleFactLen(fToks)
	if !ok {
		s.mFallbacks.Add(1)
		return s.m.predictShapley(s.qToks, s.tToks, fToks)
	}
	s.mHits.Add(1)
	if s.pc == nil {
		s.buildPrefix()
	}
	s.suf, s.sufSeg = appendFactSuffix(s.suf[:0], s.sufSeg[:0], s.m.tok, fToks, fLen)
	seq := s.prefixLen + fLen + 1
	if cap(s.mask) < seq {
		s.mask = make([]bool, seq)
		for i := range s.mask {
			s.mask[i] = true
		}
	}
	s.mask = s.mask[:seq]
	hidden := s.m.enc.ForwardWithPrefix(s.pc, s.suf, s.sufSeg, s.mask)
	return s.m.shapHead.Forward(hidden) / s.m.Cfg.TargetScale
}

// appendFactSuffix encodes a (possibly trimmed) fact token sequence plus the
// trailing [SEP] as segment-2 suffix ids, appending into the given buffers.
func appendFactSuffix(suf, seg []int, tok *tokenizer.Tokenizer, fToks []string, fLen int) ([]int, []int) {
	for _, id := range tok.Encode(fToks[:fLen]) {
		suf = append(suf, id)
		seg = append(seg, 2)
	}
	suf = append(suf, tokenizer.SepID)
	seg = append(seg, 2)
	return suf, seg
}

// rankOn is the prefix-reuse implementation behind Model.RankOn.
func (m *Model) rankOn(db *relation.Database, in Input) shapley.Values {
	s := newLineageScorer(m, in)
	if reg := obs.Metrics(); reg != nil {
		reg.Counter("core.rank.lineages").Add(1)
		reg.Counter("core.rank.facts").Add(int64(len(in.Lineage)))
	}
	out := make(shapley.Values, len(in.Lineage))
	for _, id := range in.Lineage {
		f := db.Fact(id)
		if f == nil {
			out[id] = 0
			continue
		}
		out[id] = s.score(m.tokensForFact(db, id, f))
	}
	return out
}

// rankOnFull is the pre-optimization reference path: every fact is scored by
// an independent full-length (padded, no prefix reuse) forward pass. Kept for
// the bit-identity golden test and as the baseline of the end-to-end ranking
// benchmark (BENCH_kernels.json).
func (m *Model) rankOnFull(db *relation.Database, in Input) shapley.Values {
	qToks := tokenizer.TokenizeSQL(in.SQL)
	tToks := tokenizer.TokenizeValues(in.TupleValues)
	out := make(shapley.Values, len(in.Lineage))
	for _, id := range in.Lineage {
		f := db.Fact(id)
		if f == nil {
			out[id] = 0
			continue
		}
		out[id] = m.predictShapley(qToks, tToks, tokenizer.TokenizeFact(f))
	}
	return out
}
