package core

import (
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/shapley"
)

// Batched ranking: RankMany scores one or more lineages in one call and packs
// all their facts into shared encoder passes via
// nn.BatchedForwardMultiPrefix, so each transformer layer's projections run
// as a few large GEMMs instead of one small GEMM per fact, and a coalesced
// serving batch becomes a few packed passes instead of one per request.
// RankOn with RankBatch > 1 is RankManyOn of a single input. Each lineage
// still owns its prefix caches — the untrimmed one and one per trimmed
// (qLen, tLen) shape — and lineageScorer.prefixFor stays the single source of
// truth for which cache and fact length a fact gets, exactly as on the
// per-fact path. Scores are therefore bit-identical to per-fact prefix
// ranking: the packed pass is bit-identical to per-sequence ForwardWithPrefix
// calls (see internal/nn) and the head reads each sequence's [CLS] row via
// ForwardAt, which is the same Dim floats the per-fact head reads.

// multiBatcher accumulates facts across lineages and flushes them in
// multi-prefix packed passes. Facts are queued in input order, so each pass
// sees lineages as runs of consecutive facts (a lineage whose facts trim to
// several shapes contributes several caches). Slot buffers are reused across
// chunks; queued state holds only owned token slices, mask views of
// trueMask, and PrefixCache pointers (whose rows are clones), so interleaved
// prefix builds — which reset the encoder workspace — cannot corrupt a
// pending chunk.
type multiBatcher struct {
	m *Model

	pcs      []*nn.PrefixCache
	ids      []relation.FactID
	outs     []shapley.Values
	sufs     [][]int
	sufSegs  [][]int
	masks    [][]bool
	trueMask []bool // shared all-true backing; masks[i] slices it
	n        int
}

func newMultiBatcher(m *Model) *multiBatcher {
	b := &multiBatcher{m: m, trueMask: make([]bool, m.Cfg.MaxSeqLen)}
	for i := range b.trueMask {
		b.trueMask[i] = true
	}
	return b
}

// add queues one fact, to be encoded after prefix pc with its first fLen
// tokens (scattering its score into out), and flushes when the chunk is
// full.
func (b *multiBatcher) add(pc *nn.PrefixCache, out shapley.Values, id relation.FactID, fToks []string, fLen int) {
	if b.n == len(b.ids) {
		b.pcs = append(b.pcs, nil)
		b.ids = append(b.ids, 0)
		b.outs = append(b.outs, nil)
		b.sufs = append(b.sufs, nil)
		b.sufSegs = append(b.sufSegs, nil)
		b.masks = append(b.masks, nil)
	}
	b.pcs[b.n] = pc
	b.ids[b.n] = id
	b.outs[b.n] = out
	b.sufs[b.n], b.sufSegs[b.n] = appendFactSuffix(
		b.sufs[b.n][:0], b.sufSegs[b.n][:0], b.m.tok, fToks, fLen)
	b.masks[b.n] = b.trueMask[:pc.Len()+len(b.sufs[b.n])]
	b.n++
	if b.n == b.m.Cfg.RankBatch {
		b.flush()
	}
}

// flush encodes the queued facts — possibly spanning several lineages — in
// one multi-prefix pass and scatters their scores back to the per-request
// value maps.
func (b *multiBatcher) flush() {
	if b.n == 0 {
		return
	}
	hidden, offs := b.m.enc.BatchedForwardMultiPrefix(b.pcs[:b.n], b.sufs[:b.n], b.sufSegs[:b.n], b.masks[:b.n])
	for i := 0; i < b.n; i++ {
		b.outs[i][b.ids[i]] = b.m.shapHead.ForwardAt(hidden, offs[i]) / b.m.Cfg.TargetScale
		b.pcs[i], b.outs[i] = nil, nil // don't retain request state across calls
	}
	b.n = 0
}

// RankMany ranks many lineages against the training database, packing their
// facts into cross-request encoder passes (see RankManyOn).
func (m *Model) RankMany(ins []Input) []shapley.Values {
	return m.RankManyOn(m.db(), ins)
}

// RankManyOn ranks several lineages whose fact IDs refer to the given
// database. With Cfg.RankBatch > 1, the facts of ALL inputs share
// one packing budget: chunks of up to RankBatch sequences flush through
// nn.BatchedForwardMultiPrefix regardless of which lineage contributed them,
// so small lineages no longer cap GEMM size. out[i] corresponds to ins[i].
// Scores are bit-identical to len(ins) independent per-fact RankOn calls —
// packing changes scheduling, never arithmetic (see
// internal/nn/multiprefix.go for the structural argument). With RankBatch
// <= 1 there is nothing to pack and each input takes the plain path.
func (m *Model) RankManyOn(db *relation.Database, ins []Input) []shapley.Values {
	out := make([]shapley.Values, len(ins))
	if m.Cfg.RankBatch <= 1 {
		for i, in := range ins {
			out[i] = m.RankOn(db, in)
		}
		return out
	}
	reg := obs.Metrics()
	mLineages := reg.Counter("core.rank.lineages")
	mFacts := reg.Counter("core.rank.facts")
	b := newMultiBatcher(m)
	for i, in := range ins {
		s := newLineageScorer(m, in)
		mLineages.Add(1)
		mFacts.Add(int64(len(in.Lineage)))
		out[i] = make(shapley.Values, len(in.Lineage))
		for _, id := range in.Lineage {
			f := db.Fact(id)
			if f == nil {
				out[i][id] = 0
				continue
			}
			fToks := m.tokensForFact(db, id, f)
			pc, fLen := s.prefixFor(fToks)
			b.add(pc, out[i], id, fToks, fLen)
		}
	}
	b.flush()
	return out
}
