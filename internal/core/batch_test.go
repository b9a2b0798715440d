package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/shapley"
)

// assertValuesBitEqual compares two score maps bit for bit.
func assertValuesBitEqual(t *testing.T, label string, got, want shapley.Values) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scored %d facts, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: fact %v missing", label, id)
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: fact %v: batched score %v != reference %v (bits %x vs %x)",
				label, id, g, w, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestRankOnBatchedGolden is the golden bit-identity test for the batched
// ranking path: RankOn with RankBatch > 1 must score every lineage fact
// bit-for-bit identically to the per-fact prefix path, across chunk sizes
// (spanning lineages smaller, equal to and larger than the chunk).
func TestRankOnBatchedGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	defer func() { m.Cfg.RankBatch = 0 }()
	ins := caseInputs(c)
	if len(ins) == 0 {
		t.Fatal("corpus has no labeled cases")
	}
	m.Cfg.RankBatch = 0
	want := make([]shapley.Values, len(ins))
	for i, in := range ins {
		want[i] = m.RankOn(c.DB, in)
	}
	for _, batch := range []int{2, 3, 8, 64} {
		m.Cfg.RankBatch = batch
		for i, in := range ins {
			assertValuesBitEqual(t, "batched", m.RankOn(c.DB, in), want[i])
		}
	}
}

// TestRankOnBatchedTruncated repeats the golden comparison with a sequence
// budget small enough that truncation reaches the prefix for some facts: the
// batched ranker must take the same per-fact fallback on exactly those facts
// and still match the padded full-length reference bitwise.
func TestRankOnBatchedTruncated(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 16
	cfg.RankBatch = 4
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))

	run := obs.NewRun("batch-trunc-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	for _, in := range caseInputs(c) {
		want := m.rankOnFull(c.DB, in)
		assertValuesBitEqual(t, "truncated", m.RankOn(c.DB, in), want)
	}
	snap := run.Reg.Snapshot()
	if snap.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Error("no fact exercised the truncation fallback; lower MaxSeqLen")
	}
}

// TestEligibilityExactBudgetEdges pins how a fact is packed at the exact
// sequence budget. prefixFor is the single decision both the per-fact and
// batched rankers route through, so these edges are exactly where both paths
// flip from the lineage's untrimmed prefix to a trimmed one: a fact that
// exactly fills the budget (or overflows while being the longest segment, so
// only the fact is trimmed) keeps the untrimmed prefix; one token of overflow
// with the query or tuple longest trims that segment, and the fact gets the
// prefix cache of the trimmed (qLen, tLen) shape.
func TestEligibilityExactBudgetEdges(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	budget := cfg.MaxSeqLen - 4 // CLS + three SEPs around (q, t, f)
	cases := []struct {
		name                string
		qLen, tLen, factLen int
		wantQ, wantT, wantF int
	}{
		{"fact exactly fills", 6, 4, budget - 10, 6, 4, budget - 10},
		{"fact overflows by one, fact longest", 6, 4, budget - 9, 6, 4, budget - 10},
		{"query longest on overflow", budget - 14, 4, 11, budget - 15, 4, 11},
		{"tuple longest on overflow", 4, budget - 14, 11, 4, budget - 15, 11},
	}
	for _, tc := range cases {
		s := newLineageScorer(m, Input{})
		s.qToks, s.tToks = make([]string, tc.qLen), make([]string, tc.tLen)
		s.qLen, s.tLen = tc.qLen, tc.tLen
		pc, fLen := s.prefixFor(make([]string, tc.factLen))
		untrimmed := tc.wantQ == tc.qLen && tc.wantT == tc.tLen
		if fLen != tc.wantF || pc.Len() != tc.wantQ+tc.wantT+3 || (pc == s.pc) != untrimmed {
			t.Errorf("%s: prefixFor(q=%d t=%d f=%d) = (prefix %d, fact %d, untrimmed %v), want (%d, %d, %v)",
				tc.name, tc.qLen, tc.tLen, tc.factLen, pc.Len(), fLen, pc == s.pc,
				tc.wantQ+tc.wantT+3, tc.wantF, untrimmed)
		}
		if again, _ := s.prefixFor(make([]string, tc.factLen)); again != pc {
			t.Errorf("%s: a second fact of the same shape got a different prefix cache", tc.name)
		}
	}
}

// TestRankOnBatchedCounterAgreement ranks the same inputs through the
// per-fact and batched paths under separate live registries and asserts the
// prefix hit/fallback/build counters agree exactly: both paths pack every
// fact through the same prefixFor rule. It also pins the batched-pass
// metrics: every fact, trimmed prefix or not, flows through a multi-prefix
// packed pass, so nn.mbatch.sequences equals hits + fallbacks.
func TestRankOnBatchedCounterAgreement(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44 // tight enough that some facts fall back, some don't
	tok := buildVocabulary(c, cfg)
	ins := caseInputs(c)

	rank := func(rankBatch int) obs.Snapshot {
		run := obs.NewRun("batch-counter-test", obs.NewRegistry(), nil, nil)
		obs.Install(run)
		defer obs.Uninstall()
		// Built under the live registry so the encoder's nn.mbatch.* handles
		// are resolved against it.
		cfg.RankBatch = rankBatch
		m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
		for _, in := range ins {
			m.RankOn(c.DB, in)
		}
		return run.Reg.Snapshot()
	}

	perFact := rank(0)
	batched := rank(3)
	for _, name := range []string{
		"core.rank.lineages", "core.rank.facts",
		"core.rank.prefix_hits", "core.rank.prefix_fallbacks", "core.rank.prefix_builds",
	} {
		if perFact.Counters[name] != batched.Counters[name] {
			t.Errorf("counter %s: per-fact %d vs batched %d",
				name, perFact.Counters[name], batched.Counters[name])
		}
	}
	hits, fallbacks := perFact.Counters["core.rank.prefix_hits"], perFact.Counters["core.rank.prefix_fallbacks"]
	if hits == 0 || fallbacks == 0 {
		t.Fatalf("fixture must exercise both prefix kinds: hits=%d fallbacks=%d", hits, fallbacks)
	}
	if perFact.Counters["nn.mbatch.passes"] != 0 {
		t.Error("per-fact path must not take batched passes")
	}
	if got := batched.Counters["nn.mbatch.sequences"]; got != hits+fallbacks {
		t.Errorf("nn.mbatch.sequences = %d, want every fact (%d)", got, hits+fallbacks)
	}
	if batched.Counters["nn.mbatch.passes"] == 0 {
		t.Error("batched path recorded no packed passes")
	}
}
