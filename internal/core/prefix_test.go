package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/tokenizer"
)

// caseInputs collects ranking inputs for every labeled case in the corpus.
func caseInputs(c *dataset.Corpus) []Input {
	var ins []Input
	for qi, q := range c.Queries {
		for _, cs := range q.Cases {
			ins = append(ins, Input{
				SQL:         c.Queries[qi].SQL,
				Query:       c.Queries[qi].Query,
				TupleValues: cs.Tuple.Values,
				Lineage:     cs.Tuple.Lineage(),
			})
		}
	}
	return ins
}

// TestRankOnPrefixGolden is the golden bit-identity test for the prefix-reuse
// ranking path: RankOn (shared-prefix encoding, trimmed sequences) must score
// every lineage fact bit-for-bit identically to rankOnFull (independent padded
// full-length forward passes — the pre-optimization reference).
func TestRankOnPrefixGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	ins := caseInputs(c)
	if len(ins) == 0 {
		t.Fatal("corpus has no labeled cases")
	}
	facts, fast := 0, 0
	for _, in := range ins {
		want := m.rankOnFull(c.DB, in)
		got := m.RankOn(c.DB, in)
		if len(got) != len(want) {
			t.Fatalf("scored %d facts, want %d", len(got), len(want))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok {
				t.Fatalf("fact %v missing from prefix-reuse scores", id)
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("fact %v: prefix-reuse score %v != reference %v (bits %x vs %x)",
					id, g, w, math.Float64bits(g), math.Float64bits(w))
			}
			facts++
		}
		// Count how often the fast path applies at the default sequence length
		// (the scorer falls back when truncation reaches the prefix).
		s := newLineageScorer(m, in)
		for _, id := range in.Lineage {
			if f := c.DB.Fact(id); f != nil {
				s.score(m.tokensForFact(c.DB, id, f))
			}
		}
		if s.pc != nil {
			fast++
		}
	}
	if facts == 0 {
		t.Fatal("no facts compared")
	}
	if fast == 0 {
		t.Error("prefix fast path never engaged; golden test is vacuous")
	}
}

// TestRankOnPrefixGoldenTruncated repeats the golden comparison with a
// sequence budget small enough that Pack's truncation reaches into the query
// and tuple segments, forcing the per-fact fallback path.
func TestRankOnPrefixGoldenTruncated(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	fellBack := false
	for _, in := range caseInputs(c) {
		want := m.rankOnFull(c.DB, in)
		got := m.RankOn(c.DB, in)
		for id, w := range want {
			if math.Float64bits(got[id]) != math.Float64bits(w) {
				t.Fatalf("fact %v: truncated score %v != reference %v", id, got[id], w)
			}
		}
		s := newLineageScorer(m, in)
		for _, id := range in.Lineage {
			if f := c.DB.Fact(id); f != nil {
				s.score(m.tokensForFact(c.DB, id, f))
			}
		}
		if s.pc == nil && len(in.Lineage) > 0 {
			fellBack = true
		}
	}
	if !fellBack {
		t.Error("no lineage exercised the truncation fallback; lower MaxSeqLen")
	}
}

// TestRankOnReplicaParity checks that worker replicas produce bit-identical
// rankings through the prefix-reuse path: replicas share weights but own
// their workspaces and prefix caches.
func TestRankOnReplicaParity(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	rep := m.CloneForWorker()
	for _, in := range caseInputs(c)[:4] {
		want := m.RankOn(c.DB, in)
		got := rep.RankOn(c.DB, in)
		for id, w := range want {
			if math.Float64bits(got[id]) != math.Float64bits(w) {
				t.Fatalf("fact %v: replica score %v != primary %v", id, got[id], w)
			}
		}
	}
}

// TestRankTrimmedShapesGolden pins the per-shape trimmed prefix caches: on a
// lineage that keeps some facts on the untrimmed prefix while others trim
// (q, t) to at least two distinct shapes, both RankOn (RankBatch 0, per-fact
// passes) and RankManyOn (RankBatch 3, packed passes) must score every fact
// bitwise like rankOnFull, and embed exactly one prefix cache per shape used:
// core.rank.prefix_builds = 1 + the number of distinct trimmed shapes.
func TestRankTrimmedShapesGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	// Find a sequence budget and a lineage that mix the untrimmed prefix with
	// at least two trimmed shapes, deriving shapes with Pack's own rule.
	var in Input
	maxSeq, shapes := 0, 0
	for budget := 96; budget >= 12 && shapes == 0; budget-- {
		for _, cand := range caseInputs(c) {
			q := len(tokenizer.TokenizeSQL(cand.SQL))
			tl := len(tokenizer.TokenizeValues(cand.TupleValues))
			untrimmed, trimmed := false, map[[2]int]bool{}
			for _, id := range cand.Lineage {
				lens := tokenizer.FitLengths(budget, []int{q, tl, len(tokenizer.TokenizeFact(c.DB.Fact(id)))})
				if lens[0] == q && lens[1] == tl {
					untrimmed = true
				} else {
					trimmed[[2]int{lens[0], lens[1]}] = true
				}
			}
			if untrimmed && len(trimmed) >= 2 {
				in, maxSeq, shapes = cand, budget, len(trimmed)
				break
			}
		}
	}
	if shapes == 0 {
		t.Fatal("no lineage mixes the untrimmed prefix with two trimmed shapes; the fixture is vacuous")
	}
	t.Logf("MaxSeqLen %d: %d facts, %d trimmed shapes", maxSeq, len(in.Lineage), shapes)
	cfg := tinyConfig()
	cfg.MaxSeqLen = maxSeq
	tok := buildVocabulary(c, cfg)
	for _, rankBatch := range []int{0, 3} {
		run := obs.NewRun("trimmed-shapes-test", obs.NewRegistry(), nil, nil)
		obs.Install(run)
		cfg.RankBatch = rankBatch
		m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
		want := m.rankOnFull(c.DB, in)
		assertValuesBitEqual(t, "RankOn", m.RankOn(c.DB, in), want)
		assertValuesBitEqual(t, "RankManyOn", m.RankManyOn(c.DB, []Input{in})[0], want)
		obs.Uninstall()
		if got := run.Reg.Snapshot().Counters["core.rank.prefix_builds"]; got != int64(2*(1+shapes)) {
			t.Errorf("RankBatch %d: core.rank.prefix_builds = %d over two rankings, want 2×(1 + %d trimmed shapes)",
				rankBatch, got, shapes)
		}
	}
}
