package nn

// Prefix-sharing packing: BatchedForwardMultiPrefix packs suffix sequences,
// each appended to its own embedded prefix cache, into a single [ΣT×Dim]
// matrix, so the Q/K/V/FFN projections of one lineage's facts — or of a whole
// coalesced request batch spanning several lineages — run as one set of large
// GEMMs on the blocked kernel, while attention stays per-sequence on
// Workspace.View row windows with each sequence's own prefix rows and mask.
//
// The bit-identity argument is the same structural one as batched.go — and it
// is prefix-agnostic:
//   - each sequence's prefix rows are copied verbatim from its own cache, and
//     its suffix rows are embedded at the same absolute positions (posOffset =
//     that sequence's prefix length) the per-sequence path uses;
//   - every row-local layer (embedding LayerNorm, Linear bias adds, GELU,
//     residual adds) computes a packed row exactly as it computes the row
//     alone, and the GEMM kernels accumulate each output row independently in
//     k-order, so which rows share a matrix never affects any row's value;
//   - attention reads only the rows of its own sequence window.
// So a multi-prefix pass is bit-identical to B independent ForwardWithPrefix
// calls — packing changes scheduling, never arithmetic.

// BatchedForwardMultiPrefix encodes B sequences where sequence b is
// pcs[b] + sufTokens[b]. The caches may differ per sequence or all be the
// same one (repeats are fine and copy the same rows again);
// masks[b] covers sequence b's full prefix+suffix length. Returns the packed
// hidden states [ΣT×Dim] and per-sequence row offsets exactly like
// BatchedForward; both are encoder scratch, valid until the next forward
// pass. Inference-only: poisons the Backward caches.
func (e *Encoder) BatchedForwardMultiPrefix(pcs []*PrefixCache, sufTokens, sufSegments [][]int, masks [][]bool) (*Mat, []int) {
	d := e.Cfg.Dim
	total, sufTotal, groups := 0, 0, 0
	e.batchOffs, e.batchLens = e.batchOffs[:0], e.batchLens[:0]
	for b := range sufTokens {
		seq := pcs[b].Len() + len(sufTokens[b])
		if seq > e.Cfg.MaxSeqLen {
			panic("nn: sequence exceeds MaxSeqLen")
		}
		e.batchOffs = append(e.batchOffs, total)
		e.batchLens = append(e.batchLens, seq)
		total += seq
		sufTotal += len(sufTokens[b])
		if b == 0 || pcs[b] != pcs[b-1] {
			groups++
		}
	}
	if total == 0 {
		panic("nn: empty batch")
	}
	e.recordMultiBatch(len(sufTokens), sufTotal, groups)
	e.ws.Reset()
	e.tokens, e.segments = nil, nil // poison Backward: inference only
	e.batchTrain = false            // and BatchedBackward: the sublayer caches are not populated
	x := e.ws.Get(total, d)
	if sufTotal > 0 {
		// Embed every suffix into one packed matrix and LayerNorm it in one
		// pass. Each suffix uses its own sequence's prefix length as the
		// position offset; LayerNorm is row-local, so rows from different
		// lineages normalize independently even though they share the pass.
		sufX := e.ws.Get(sufTotal, d)
		off := 0
		for b := range sufTokens {
			e.embedRowsAt(sufX, off, sufTokens[b], sufSegments[b], pcs[b].Len())
			off += len(sufTokens[b])
		}
		sufN := e.embLN.Forward(e.ws, sufX)
		off = 0
		for b := range sufTokens {
			p, n := pcs[b].Len(), len(sufTokens[b])
			copy(x.Data[(e.batchOffs[b]+p)*d:(e.batchOffs[b]+p+n)*d], sufN.Data[off*d:(off+n)*d])
			off += n
		}
	}
	for b := range sufTokens {
		copy(x.Data[e.batchOffs[b]*d:e.batchOffs[b]*d+len(pcs[b].X.Data)], pcs[b].X.Data)
	}
	return e.encodeBatch(x, masks), e.batchOffs
}

// recordMultiBatch bumps the multi-prefix pass metrics. seqs is the number of
// packed sequences, tokens the suffix rows actually embedded, prefixes the
// number of consecutive same-cache runs in the batch — i.e. how many distinct
// lineage groups the pass spanned (callers queue facts grouped by lineage, so
// run-length equals distinct prefixes without needing a set).
func (e *Encoder) recordMultiBatch(seqs, tokens, prefixes int) {
	e.mForward.Add(int64(seqs))
	e.mTokens.Add(int64(tokens))
	e.mMBatchPasses.Add(1)
	e.mMBatchSeqs.Add(int64(seqs))
	e.mMBatchPrefixes.Add(int64(prefixes))
	e.hMBatchSize.Observe(float64(seqs))
}
