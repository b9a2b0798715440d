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
// with the fact tokens appended as segment 2. Three differences from the
// naive per-fact path, all provably bit-preserving for the [CLS] output row
// (see DESIGN.md "Memory model & kernels"):
//
//   - sequences are not padded to MaxSeqLen: attention masks padded keys out of
//     every softmax and all other layers are row-local, so trailing padding
//     rows never influence row 0;
//   - the prefix embedding rows are reused across facts: embeddings and
//     LayerNorm are row-local and the prefix occupies the same absolute
//     positions in every sequence of the lineage;
//   - the encoder's last layer runs on the [CLS] row only (nn.encodeInfer),
//     the one row the head reads.
//
// Pack's truncation rule (tokenizer.FitLengths) decides each fact's segment
// lengths. Most facts leave the query and tuple untrimmed and share the
// lineage's full prefix. A long fact can steal prefix budget and trim q and t
// to shorter (qLen, tLen); every fact with the same trimmed shape shares
// that trimmed prefix, so the scorer keeps one cache per shape, built on
// first use. Every fact therefore runs through the same prefix-reuse pass.
type lineageScorer struct {
	m            *Model
	qToks, tToks []string
	qLen, tLen   int

	pc      *nn.PrefixCache            // untrimmed prefix, built on the first fact that uses it
	trimmed map[[2]int]*nn.PrefixCache // (qLen, tLen) -> trimmed prefix, built on first use

	// Reusable per-fact buffers.
	suf, sufSeg []int
	mask        []bool
	lens        []int

	// Prefix effectiveness counters: facts scored through the untrimmed
	// prefix vs. facts whose truncation reached into the prefix (scored
	// through a trimmed one), and prefix caches embedded. Resolved once per
	// lineage; nil (no-op) without a live registry.
	mHits, mFallbacks, mBuilds *obs.Counter
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
		mBuilds:    reg.Counter("core.rank.prefix_builds"),
	}
	s.qLen, s.tLen = len(s.qToks), len(s.tToks)
	return s
}

// buildPrefix encodes [CLS] q[:qLen] [SEP] t[:tLen] [SEP] through the
// embedding layer, with exactly the tokens and segments Pack emits for those
// lengths.
func (s *lineageScorer) buildPrefix(qLen, tLen int) *nn.PrefixCache {
	s.mBuilds.Add(1)
	n := 1 + qLen + 1 + tLen + 1
	tokens := make([]int, 0, n)
	segs := make([]int, 0, n)
	push := func(id, seg int) {
		tokens = append(tokens, id)
		segs = append(segs, seg)
	}
	push(tokenizer.ClsID, 0)
	for _, id := range s.m.tok.Encode(s.qToks[:qLen]) {
		push(id, 0)
	}
	push(tokenizer.SepID, 0)
	for _, id := range s.m.tok.Encode(s.tToks[:tLen]) {
		push(id, 1)
	}
	push(tokenizer.SepID, 1)
	return s.m.enc.EmbedPrefix(tokens, segs)
}

// prefixFor applies Pack's truncation rule to a fact and returns the prefix
// cache for the resulting (query, tuple) lengths — built on first use — and
// the fact's (possibly trimmed) token count. The single source of truth for
// how a fact is packed: the per-fact and batched rankers both route through
// it, so they score every fact against the same prefix.
func (s *lineageScorer) prefixFor(fToks []string) (*nn.PrefixCache, int) {
	s.lens[0], s.lens[1], s.lens[2] = s.qLen, s.tLen, len(fToks)
	tokenizer.FitLengths(s.m.Cfg.MaxSeqLen, s.lens)
	qLen, tLen, fLen := s.lens[0], s.lens[1], s.lens[2]
	if qLen == s.qLen && tLen == s.tLen {
		s.mHits.Add(1)
		if s.pc == nil {
			s.pc = s.buildPrefix(qLen, tLen)
		}
		return s.pc, fLen
	}
	// Truncation reached into the prefix: share the cache of this shape.
	s.mFallbacks.Add(1)
	key := [2]int{qLen, tLen}
	pc := s.trimmed[key]
	if pc == nil {
		if s.trimmed == nil {
			s.trimmed = make(map[[2]int]*nn.PrefixCache)
		}
		pc = s.buildPrefix(qLen, tLen)
		s.trimmed[key] = pc
	}
	return pc, fLen
}

// score predicts the (unscaled) Shapley value of one fact from its tokens
// (cached per fact by Model.tokensForFact at the call sites).
func (s *lineageScorer) score(fToks []string) float64 {
	pc, fLen := s.prefixFor(fToks)
	s.suf, s.sufSeg = appendFactSuffix(s.suf[:0], s.sufSeg[:0], s.m.tok, fToks, fLen)
	seq := pc.Len() + len(s.suf)
	if cap(s.mask) < seq {
		s.mask = make([]bool, seq)
		for i := range s.mask {
			s.mask[i] = true
		}
	}
	s.mask = s.mask[:seq]
	hidden := s.m.enc.ForwardWithPrefix(pc, s.suf, s.sufSeg, s.mask)
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
// an independent full-length (padded, no prefix reuse, every layer on every
// row) forward pass. Kept as the oracle of the bit-identity golden tests and
// as the baseline of BenchmarkRankLineageFull.
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
