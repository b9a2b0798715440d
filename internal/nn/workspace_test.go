package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestWorkspaceRecyclesByShape(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(3, 4)
	b := ws.Get(2, 2)
	a.Data[0], b.Data[0] = 7, 8
	ws.Reset()
	a2 := ws.Get(3, 4)
	if &a2.Data[0] != &a.Data[0] {
		t.Error("same-shape Get after Reset must reuse storage")
	}
	if a2.Data[0] != 0 {
		t.Error("recycled matrix must be zeroed")
	}
	c := ws.Get(3, 4) // second matrix of the same shape in one step
	if &c.Data[0] == &a.Data[0] {
		t.Error("two live matrices must not share storage")
	}
	ws.Reset()
	// Both recycled; two Gets drain the pool, a third allocates fresh.
	m1, m2, m3 := ws.Get(3, 4), ws.Get(3, 4), ws.Get(3, 4)
	if &m1.Data[0] == &m2.Data[0] || &m1.Data[0] == &m3.Data[0] || &m2.Data[0] == &m3.Data[0] {
		t.Error("live matrices alias each other")
	}
}

func TestWorkspaceFloats(t *testing.T) {
	ws := NewWorkspace()
	f := ws.Floats(5)
	if len(f) != 5 {
		t.Fatalf("Floats(5) length %d", len(f))
	}
	for i := range f {
		f[i] = 1
	}
	ws.Reset()
	f2 := ws.Floats(5)
	if &f2[0] != &f[0] {
		t.Error("Floats must recycle through the pool")
	}
	for _, v := range f2 {
		if v != 0 {
			t.Fatal("recycled Floats must be zeroed")
		}
	}
}

// encoderStep runs one full forward+backward training step, the unit whose
// steady-state allocation count must be zero.
func encoderStep(enc *Encoder, head *RegressionHead, tokens, segments []int, mask []bool) float64 {
	h := enc.Forward(tokens, segments, mask)
	pred := head.Forward(h)
	grad := head.Backward(2*(pred-0.5), h.Rows, h.Cols)
	enc.Backward(grad)
	return pred
}

// TestEncoderStepZeroAllocs pins the steady-state heap-allocation count of a
// full encoder forward+backward step to exactly zero. This is the regression
// gate for the workspace arena: any code path that re-grows scratch per step
// fails here. scripts/ci.sh additionally fails if this test is skipped.
func TestEncoderStepZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(20))
	ps := &Params{}
	enc := NewEncoder(Config{
		VocabSize: 50, MaxSeqLen: 16, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32,
	}, ps, rng)
	head := NewRegressionHead(ps, "head", 16, rng)
	tokens := []int{2, 5, 9, 11, 3, 0, 0}
	segments := []int{0, 0, 1, 1, 1, 0, 0}
	mask := []bool{true, true, true, true, true, false, false}
	short := []int{2, 7, 3}
	shortSeg := []int{0, 1, 1}
	shortMask := []bool{true, true, true}

	// Warm up: two steps per sequence length so every scratch shape is pooled.
	for i := 0; i < 2; i++ {
		encoderStep(enc, head, tokens, segments, mask)
		encoderStep(enc, head, short, shortSeg, shortMask)
	}
	allocs := testing.AllocsPerRun(20, func() {
		encoderStep(enc, head, tokens, segments, mask)
	})
	if allocs != 0 {
		t.Errorf("warmed encoder step allocates %v objects/op, want 0", allocs)
	}
	// Alternating sequence lengths must also be alloc-free: the pool is keyed
	// by shape, not by last use.
	allocs = testing.AllocsPerRun(20, func() {
		encoderStep(enc, head, tokens, segments, mask)
		encoderStep(enc, head, short, shortSeg, shortMask)
	})
	if allocs != 0 {
		t.Errorf("alternating-length steps allocate %v objects/op, want 0", allocs)
	}
}

// TestReplicaWorkspacesIndependent runs replica encoders concurrently under
// load to demonstrate that CloneForWorker replicas share weights but never
// scratch: with a shared workspace this would race and corrupt outputs.
func TestReplicaWorkspacesIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	cfg := Config{VocabSize: 40, MaxSeqLen: 12, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32}
	build := func(ps *Params, r *rand.Rand) *Encoder { return NewEncoder(cfg, ps, r) }
	ps := &Params{}
	primary := build(ps, rng)
	tokens := []int{1, 4, 9, 2}
	segments := []int{0, 0, 1, 1}
	mask := []bool{true, true, true, true}
	want := primary.Forward(tokens, segments, mask).Clone()

	const workers = 4
	outs := make([]*Mat, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wps := ps.CloneForWorker()
		replica := build(wps, rand.New(rand.NewSource(0)))
		wg.Add(1)
		go func(w int, e *Encoder) {
			defer wg.Done()
			var out *Mat
			for rep := 0; rep < 50; rep++ {
				out = e.Forward(tokens, segments, mask)
			}
			outs[w] = out.Clone()
		}(w, replica)
	}
	wg.Wait()
	for w, out := range outs {
		for i := range want.Data {
			if math.Float64bits(out.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("replica %d output differs from primary at %d", w, i)
			}
		}
	}
}

// TestForwardWithPrefixMatchesForward property-tests the prefix-reuse
// inference pass against the training Forward: over layer counts, head
// counts and random prefix/suffix splits, ForwardWithPrefix's 1×Dim result
// must equal row 0 ([CLS]) of Forward over the same tokens padded with junk
// to a random length, bit for bit. This covers both shortcuts of the
// inference pass at once — prefix rows from the cache, and a last layer
// computed on the [CLS] row only — plus the masking of padded keys.
func TestForwardWithPrefixMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const vocab, maxSeq = 60, 20
	for _, layers := range []int{1, 2, 3} {
		for _, heads := range []int{1, 2, 4} {
			enc := NewEncoder(Config{
				VocabSize: vocab, MaxSeqLen: maxSeq, Dim: 16, Heads: heads, Layers: layers,
				FFNHidden: 32, Segments: 3,
			}, &Params{}, rng)
			for trial := 0; trial < 6; trial++ {
				pLen := 1 + rng.Intn(maxSeq-1)
				sLen := rng.Intn(maxSeq - pLen + 1) // 0 = prefix-only sequence
				real := pLen + sLen
				padded := real + rng.Intn(maxSeq-real+1)
				tokens, segs, mask := randSeq(rng, padded, vocab, 3)
				for i := range mask {
					mask[i] = i < real
				}
				pc := enc.EmbedPrefix(tokens[:pLen], segs[:pLen])
				want := enc.Forward(tokens, segs, mask).Clone()
				got := enc.ForwardWithPrefix(pc, tokens[pLen:real], segs[pLen:real], mask[:real])
				if got.Rows != 1 || got.Cols != enc.Cfg.Dim {
					t.Fatalf("ForwardWithPrefix returned %d×%d, want 1×%d", got.Rows, got.Cols, enc.Cfg.Dim)
				}
				for j, w := range want.Row(0) {
					if math.Float64bits(got.Data[j]) != math.Float64bits(w) {
						t.Fatalf("layers=%d heads=%d prefix=%d suffix=%d padded=%d: [CLS] col %d: %v vs Forward %v",
							layers, heads, pLen, sLen, padded, j, got.Data[j], w)
					}
				}
			}
		}
	}
}

// TestForwardWithPrefixZeroAllocs pins a warmed prefix-reuse inference pass
// plus its head readout — the per-fact step of RankOn — to 0 allocs/op, both
// with the no-op metrics default and with a live registry installed before
// the encoder is built (so its counter handles are live). scripts/ci.sh fails
// if this test is skipped.
func TestForwardWithPrefixZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, instrumented := range []bool{false, true} {
		if instrumented {
			obs.Install(obs.NewRun("alloc-test", obs.NewRegistry(), nil, nil))
		}
		rng := rand.New(rand.NewSource(23))
		ps := &Params{}
		enc := NewEncoder(Config{
			VocabSize: 50, MaxSeqLen: 16, Dim: 16, Heads: 2, Layers: 2, FFNHidden: 32, Segments: 3,
		}, ps, rng)
		head := NewRegressionHead(ps, "head", 16, rng)
		pc := enc.EmbedPrefix([]int{2, 5, 9, 3, 11, 3}, []int{0, 0, 0, 0, 1, 1})
		suf, sufSeg := []int{7, 8, 4, 3}, []int{2, 2, 2, 2}
		mask := make([]bool, pc.Len()+len(suf))
		for i := range mask {
			mask[i] = true
		}
		step := func() { head.ForwardAt(enc.ForwardWithPrefix(pc, suf, sufSeg, mask), 0) }
		step()
		step() // warm: every scratch shape and view header pooled
		allocs := testing.AllocsPerRun(20, step)
		if instrumented {
			obs.Uninstall()
		}
		if allocs != 0 {
			t.Errorf("instrumented=%v: warmed ForwardWithPrefix allocates %v objects/op, want 0", instrumented, allocs)
		}
	}
}
