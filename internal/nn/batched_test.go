package nn

import (
	"math"
	"math/rand"
	"testing"
)

// batchedTestEncoder builds a small encoder for the batched-parity property
// tests.
func batchedTestEncoder(seed int64) (*Encoder, *RegressionHead) {
	rng := rand.New(rand.NewSource(seed))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 60, MaxSeqLen: 24, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32, Segments: 3,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 16, rng)
	return enc, head
}

// randSeq draws one sequence of length n with a random real/padding split
// (at least one real position).
func randSeq(rng *rand.Rand, n, vocab, segments int) (tokens, segs []int, mask []bool) {
	tokens = make([]int, n)
	segs = make([]int, n)
	mask = make([]bool, n)
	real := 1 + rng.Intn(n)
	for i := 0; i < n; i++ {
		tokens[i] = rng.Intn(vocab)
		segs[i] = rng.Intn(segments)
		mask[i] = i < real
	}
	return
}

// assertWindowBitEqual compares sequence b's window of the packed hidden
// states against its per-sequence reference, bit for bit.
func assertWindowBitEqual(t *testing.T, label string, b int, packed *Mat, off int, want *Mat) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		prow, wrow := packed.Row(off+i), want.Row(i)
		for j := range wrow {
			if math.Float64bits(prow[j]) != math.Float64bits(wrow[j]) {
				t.Fatalf("%s: sequence %d row %d col %d: packed %v vs reference %v",
					label, b, i, j, prow[j], wrow[j])
			}
		}
	}
}

// TestBatchedForwardWithPrefixMatchesPerSequence property-tests the packed
// pass for batches in which every sequence shares one PrefixCache (a single
// lineage's facts, as RankOn with RankBatch > 1 submits them) against
// per-sequence ForwardWithPrefix calls, including an empty suffix (the
// sequence is exactly the prefix).
func TestBatchedForwardWithPrefixMatchesPerSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	enc, head := batchedTestEncoder(50)
	prefix := []int{2, 8, 14, 3, 21, 7, 3}
	prefixSeg := []int{0, 0, 0, 0, 1, 1, 1}
	pc := enc.EmbedPrefix(prefix, prefixSeg)
	p := pc.Len()
	for _, batch := range []int{1, 2, 5, 8} {
		for trial := 0; trial < 4; trial++ {
			pcs := make([]*PrefixCache, batch)
			sufs := make([][]int, batch)
			sufSegs := make([][]int, batch)
			masks := make([][]bool, batch)
			for b := range sufs {
				pcs[b] = pc
				n := rng.Intn(enc.Cfg.MaxSeqLen - p + 1) // 0 = prefix-only sequence
				sufs[b] = make([]int, n)
				sufSegs[b] = make([]int, n)
				for i := 0; i < n; i++ {
					sufs[b][i] = rng.Intn(enc.Cfg.VocabSize)
					sufSegs[b][i] = 2
				}
				masks[b] = make([]bool, p+n)
				for i := range masks[b] {
					masks[b][i] = true
				}
			}
			want := make([]*Mat, batch)
			wantPred := make([]float64, batch)
			for b := range sufs {
				h := enc.ForwardWithPrefix(pc, sufs[b], sufSegs[b], masks[b])
				wantPred[b] = head.Forward(h)
				want[b] = h.Clone()
			}
			packed, offs := enc.BatchedForwardMultiPrefix(pcs, sufs, sufSegs, masks)
			for b := range sufs {
				assertWindowBitEqual(t, "BatchedForwardMultiPrefix (shared prefix)", b, packed, offs[b], want[b])
				got := head.ForwardAt(packed, offs[b])
				if math.Float64bits(got) != math.Float64bits(wantPred[b]) {
					t.Fatalf("batch=%d seq %d: head %v vs reference %v",
						batch, b, got, wantPred[b])
				}
			}
		}
	}
}
