package nn

import "math"

// Batched inference: pack B sequences into one [ΣT×Dim] matrix so the
// Q/K/V/FFN projections of every layer run as a handful of large GEMMs
// instead of B small ones, while attention is applied per sequence on row
// windows of the packed matrices — sequences never attend across each other,
// which is exactly a block-diagonal attention mask without materializing it.
//
// Bit-identity with the per-sequence path is structural, not numerical luck:
//   - every row-local layer (embeddings, LayerNorm, Linear's bias add, GELU,
//     residual adds) computes each packed row exactly as it computes the same
//     row alone;
//   - the GEMM kernels accumulate each output row independently in k-order
//     (see MatMulInto), so packing rows changes which rows share a matrix,
//     never how any row is computed;
//   - attention runs the exact per-sequence kernel (AttnScoresSoftmax plus
//     the probs·V accumulation of the single-sequence path) on views of the
//     packed Q/K/V, with each sequence's own mask.
//
// The packed passes are inference-only: they poison the encoder's Backward
// caches. BatchedForwardMultiPrefix (multiprefix.go) is the entry point the
// rankers use; the helpers below are its layer loop.

// encodeBatch runs the given transformer blocks over the packed
// post-embedding states. Everything except attention is row-local and runs
// directly on the packed matrix; attention goes through the per-sequence
// batched kernel.
func (e *Encoder) encodeBatch(layers []*encoderLayer, x *Mat, masks [][]bool) *Mat {
	for _, l := range layers {
		x = l.postAttention(e.ws, l.attn.BatchedForward(e.ws, x, e.batchOffs, e.batchLens, masks), x)
	}
	return x
}

// BatchedForward computes self-attention over B sequences packed into
// x [ΣT×dim]: the Q/K/V/output projections run on the packed matrix (large
// GEMMs), the score/softmax/probs·V stage runs per sequence on row windows,
// so position i of sequence b attends exactly the keys of sequence b — no
// cross-sequence leakage, bit-identical to Forward on each sequence alone.
// Inference-only: the backward caches are not populated.
func (a *MultiHeadAttention) BatchedForward(ws *Workspace, x *Mat, offs, lens []int, masks [][]bool) *Mat {
	q, k, v := a.Wq.Forward(ws, x), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	concat := ws.Get(x.Rows, a.Dim)
	a.attendPacked(ws, q, k, v, concat, offs, lens, masks, false)
	return a.Wo.Forward(ws, concat)
}

// clsForward is BatchedForward for the [CLS] query of each sequence only:
// K and V are projected for every packed row of x (the [CLS] row attends all
// of them), but Q, the scores and softmax, the context and the output
// projection run on cls, whose row b is x's row offs[b]. The result is B×dim
// and its row b is bit-identical to row offs[b] of BatchedForward, since
// every one of those stages computes an output row from its own query row.
func (a *MultiHeadAttention) clsForward(ws *Workspace, x, cls *Mat, offs, lens []int, masks [][]bool) *Mat {
	q, k, v := a.Wq.Forward(ws, cls), a.Wk.Forward(ws, x), a.Wv.Forward(ws, x)
	concat := ws.Get(cls.Rows, a.Dim)
	a.attendPacked(ws, q, k, v, concat, offs, lens, masks, true)
	return a.Wo.Forward(ws, concat)
}

// attendPacked runs the score/softmax/probs·V stage per sequence: sequence b
// attends its own key and value rows [offs[b], offs[b]+lens[b]) with its own
// mask. Its query rows (and the concat rows they write) are the same window,
// or with clsOnly the single row b of q and concat.
func (a *MultiHeadAttention) attendPacked(ws *Workspace, q, k, v, concat *Mat, offs, lens []int, masks [][]bool, clsOnly bool) {
	scale := 1 / math.Sqrt(float64(a.dk))
	for b := range offs {
		ro, seq := offs[b], lens[b]
		qo, qn := ro, seq
		if clsOnly {
			qo, qn = b, 1
		}
		qv, kv := ws.View(q, qo, qn), ws.View(k, ro, seq)
		for h := 0; h < a.Heads; h++ {
			off := h * a.dk
			scores := ws.Get(qn, seq)
			AttnScoresSoftmax(qv, kv, off, a.dk, scale, masks[b], scores)
			for i := 0; i < qn; i++ {
				prow := scores.Row(i)
				crow := concat.Row(qo + i)[off : off+a.dk]
				for j := 0; j < seq; j++ {
					p := prow[j]
					if p == 0 {
						continue
					}
					vj := v.Row(ro + j)[off : off+a.dk]
					for t := 0; t < a.dk; t++ {
						crow[t] += p * vj[t]
					}
				}
			}
		}
	}
}
