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
// calls — packing changes scheduling, never arithmetic. Both run the same
// inference loop (forwardPrefixed → encodeInfer), whose last layer is
// computed on the [CLS] rows only.

// BatchedForwardMultiPrefix encodes B sequences where sequence b is
// pcs[b] + sufTokens[b]. The caches may differ per sequence or all be the
// same one (repeats are fine and copy the same rows again);
// masks[b] covers sequence b's full prefix+suffix length. It returns the
// final [CLS] states as a B×Dim matrix and the per-sequence row offsets into
// it (offs[b] = b), so callers read sequence b's head input with
// ForwardAt(hidden, offs[b]). Row b is bit-identical to ForwardWithPrefix's
// row 0 for sequence b. Both return values are encoder scratch, valid until
// the next forward pass. Inference-only: poisons the Backward caches.
func (e *Encoder) BatchedForwardMultiPrefix(pcs []*PrefixCache, sufTokens, sufSegments [][]int, masks [][]bool) (*Mat, []int) {
	hidden, sufTotal := e.forwardPrefixed(pcs, sufTokens, sufSegments, masks)
	groups := 0
	for b := range pcs {
		if b == 0 || pcs[b] != pcs[b-1] {
			groups++
		}
	}
	e.recordMultiBatch(len(sufTokens), sufTotal, groups)
	for len(e.clsOffs) < len(sufTokens) {
		e.clsOffs = append(e.clsOffs, len(e.clsOffs))
	}
	return hidden, e.clsOffs[:len(sufTokens)]
}

// forwardPrefixed is the inference pass shared by ForwardWithPrefix and
// BatchedForwardMultiPrefix: it packs every sequence's cached prefix rows
// and freshly embedded suffix rows into one matrix, runs encodeInfer over it
// and returns the B×Dim [CLS] states plus the number of suffix rows embedded.
func (e *Encoder) forwardPrefixed(pcs []*PrefixCache, sufTokens, sufSegments [][]int, masks [][]bool) (*Mat, int) {
	d := e.Cfg.Dim
	total, sufTotal := 0, 0
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
	}
	if total == 0 {
		panic("nn: empty batch")
	}
	e.ws.Reset()
	e.tokens, e.segments = nil, nil // poison Backward: inference only
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
	return e.encodeInfer(x, masks), sufTotal
}

// encodeInfer runs the transformer blocks over packed post-embedding rows
// for inference and returns only what the heads read: the final [CLS] state
// of every sequence, row b for sequence b. Every layer but the last runs on
// all rows, exactly as encodeBatch does — the next layer's keys and values
// need them. In the last layer only K and V need every row; Q, scores and
// softmax, context, the output projection, both LayerNorms and the FFN run
// on the B [CLS] rows alone. Each of those stages computes an output row
// from its own input row (GEMM rows accumulate independently in k-order;
// LayerNorm, GELU, bias and residual adds are row-local; a query row's
// softmax reads only its own scores), so every returned row is bit-identical
// to the corresponding row of the full pass.
func (e *Encoder) encodeInfer(x *Mat, masks [][]bool) *Mat {
	last := len(e.layers) - 1
	x = e.encodeBatch(e.layers[:last], x, masks)
	cls := e.ws.Get(len(e.batchOffs), e.Cfg.Dim)
	for b, off := range e.batchOffs {
		copy(cls.Row(b), x.Row(off))
	}
	l := e.layers[last]
	return l.postAttention(e.ws, l.attn.clsForward(e.ws, x, cls, e.batchOffs, e.batchLens, masks), cls)
}

// recordMultiBatch bumps the multi-prefix pass metrics. seqs is the number of
// packed sequences, tokens the suffix rows actually embedded, prefixes the
// number of consecutive same-cache runs in the batch (callers queue facts
// grouped by lineage, so without trimmed prefixes this is how many lineage
// groups the pass spanned, counted without a set; a lineage whose facts
// alternate between its untrimmed and trimmed caches adds one run per
// switch).
func (e *Encoder) recordMultiBatch(seqs, tokens, prefixes int) {
	e.mForward.Add(int64(seqs))
	e.mTokens.Add(int64(tokens))
	e.mMBatchPasses.Add(1)
	e.mMBatchSeqs.Add(int64(seqs))
	e.mMBatchPrefixes.Add(int64(prefixes))
	e.hMBatchSize.Observe(float64(seqs))
}
