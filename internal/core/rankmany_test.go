package core

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/shapley"
)

// TestRankManyGolden is the golden bit-identity test for cross-request
// packing: RankManyOn over all corpus lineages at once must score every fact
// bit-for-bit identically to independent per-request RankOn calls with
// batching off, across chunk sizes (smaller than, equal to and spanning
// lineages — chunks then mix facts of different lineages in one pass).
func TestRankManyGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
	defer func() { m.Cfg.RankBatch = 0 }()
	ins := caseInputs(c)
	if len(ins) < 2 {
		t.Fatal("corpus must have several labeled cases to pack across")
	}
	m.Cfg.RankBatch = 0
	want := make([]shapley.Values, len(ins))
	for i, in := range ins {
		want[i] = m.RankOn(c.DB, in)
	}
	for _, batch := range []int{2, 3, 8, 64} {
		m.Cfg.RankBatch = batch
		got := m.RankManyOn(c.DB, ins)
		for i := range ins {
			assertValuesBitEqual(t, "rankmany", got[i], want[i])
		}
	}
	// RankBatch <= 1: nothing to pack, every input takes the plain path.
	m.Cfg.RankBatch = 0
	got := m.RankManyOn(c.DB, ins)
	for i := range ins {
		assertValuesBitEqual(t, "rankmany-unbatched", got[i], want[i])
	}
}

// TestRankManyTruncatedGolden repeats the golden comparison with a sequence
// budget tight enough that truncation reaches the prefix for some facts but
// not others: a packed chunk may then hold fast-path facts of several
// lineages while their neighbors fall back per-lineage. Every score must
// still match the padded full-length reference bitwise, and both the hit and
// fallback counters must fire — mixed eligibility is the point.
func TestRankManyTruncatedGolden(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44 // tight enough that some facts fall back, some don't
	cfg.RankBatch = 4
	tok := buildVocabulary(c, cfg)
	m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))

	run := obs.NewRun("rankmany-trunc-test", obs.NewRegistry(), nil, nil)
	obs.Install(run)
	defer obs.Uninstall()
	ins := caseInputs(c)
	got := m.RankManyOn(c.DB, ins)
	for i, in := range ins {
		assertValuesBitEqual(t, "rankmany-truncated", got[i], m.rankOnFull(c.DB, in))
	}
	snap := run.Reg.Snapshot()
	if snap.Counters["core.rank.prefix_hits"] == 0 || snap.Counters["core.rank.prefix_fallbacks"] == 0 {
		t.Errorf("fixture must mix eligibility within one RankMany call: hits=%d fallbacks=%d",
			snap.Counters["core.rank.prefix_hits"], snap.Counters["core.rank.prefix_fallbacks"])
	}
}

// TestRankManyCounterAgreement asserts RankMany packs every fact through the
// same prefixFor rule as per-request ranking (identical core.rank.* counters)
// and pins the cross-request pass metrics: every fact, trimmed prefix or
// not, flows through a multi-prefix pass, so nn.mbatch.sequences equals
// hits + fallbacks.
func TestRankManyCounterAgreement(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.MaxSeqLen = 44
	tok := buildVocabulary(c, cfg)
	ins := caseInputs(c)

	snapshot := func(rankBatch int, many bool) obs.Snapshot {
		run := obs.NewRun("rankmany-counter-test", obs.NewRegistry(), nil, nil)
		obs.Install(run)
		defer obs.Uninstall()
		cfg.RankBatch = rankBatch
		m := newModel(cfg, tok, rand.New(rand.NewSource(cfg.Seed)))
		if many {
			m.RankManyOn(c.DB, ins)
		} else {
			for _, in := range ins {
				m.RankOn(c.DB, in)
			}
		}
		return run.Reg.Snapshot()
	}

	perRequest := snapshot(3, false)
	many := snapshot(3, true)
	for _, name := range []string{
		"core.rank.lineages", "core.rank.facts",
		"core.rank.prefix_hits", "core.rank.prefix_fallbacks", "core.rank.prefix_builds",
	} {
		if perRequest.Counters[name] != many.Counters[name] {
			t.Errorf("counter %s: per-request %d vs RankMany %d",
				name, perRequest.Counters[name], many.Counters[name])
		}
	}
	hits, fallbacks := perRequest.Counters["core.rank.prefix_hits"], perRequest.Counters["core.rank.prefix_fallbacks"]
	if hits == 0 || fallbacks == 0 {
		t.Fatalf("fixture must exercise both prefix kinds: hits=%d fallbacks=%d", hits, fallbacks)
	}
	if got := many.Counters["nn.mbatch.sequences"]; got != hits+fallbacks {
		t.Errorf("nn.mbatch.sequences = %d, want every fact (%d)", got, hits+fallbacks)
	}
	if many.Counters["nn.mbatch.passes"] == 0 {
		t.Error("RankMany recorded no multi-prefix passes")
	}
	if many.Counters["nn.mbatch.prefixes"] < many.Counters["nn.mbatch.passes"] {
		t.Error("every multi-prefix pass spans at least one lineage group")
	}
}
