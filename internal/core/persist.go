package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/relation"
	"repro/internal/tokenizer"
)

// savedModel is the gob payload of a trained LearnShapley model: its
// configuration, vocabulary and flat weight tensors. Adam state is not
// persisted — a loaded model is for inference (or fresh re-training).
type savedModel struct {
	Version int
	Cfg     ModelConfig
	Words   []string
	Weights [][]float64
}

const persistVersion = 1

// Checkpoint size bounds. LoadModel rejects a configuration beyond them
// before building the network it describes, so a corrupt or hostile
// checkpoint cannot make the loader allocate without bound. They sit far
// above every configuration in this repository (BaseConfig is Dim 32,
// FFNHidden 64, MaxSeqLen 96, a 2000-word vocabulary).
const (
	maxCheckpointLayers    = 64
	maxCheckpointDim       = 1024
	maxCheckpointFFNHidden = 4096
	maxCheckpointVocabSize = 1 << 17
	maxCheckpointMaxSeqLen = 4096
)

// checkCheckpoint reports why a decoded checkpoint cannot be loaded: an
// architecture the encoder rejects or that exceeds the checkpoint bounds, a
// vocabulary beyond them, a TargetScale predictions cannot be divided by, or
// a non-finite weight. It allocates nothing.
func checkCheckpoint(p *savedModel) error {
	c := p.Cfg
	switch {
	case c.Layers < 1 || c.Layers > maxCheckpointLayers:
		return fmt.Errorf("core: checkpoint Layers %d outside [1, %d]", c.Layers, maxCheckpointLayers)
	case c.Dim < 1 || c.Dim > maxCheckpointDim:
		return fmt.Errorf("core: checkpoint Dim %d outside [1, %d]", c.Dim, maxCheckpointDim)
	case c.Heads < 1 || c.Dim%c.Heads != 0:
		return fmt.Errorf("core: checkpoint Heads %d does not divide Dim %d", c.Heads, c.Dim)
	case c.FFNHidden < 0 || c.FFNHidden > maxCheckpointFFNHidden:
		return fmt.Errorf("core: checkpoint FFNHidden %d outside [0, %d]", c.FFNHidden, maxCheckpointFFNHidden)
	case c.VocabSize < 0 || c.VocabSize > maxCheckpointVocabSize:
		return fmt.Errorf("core: checkpoint VocabSize %d outside [0, %d]", c.VocabSize, maxCheckpointVocabSize)
	case len(p.Words) > maxCheckpointVocabSize:
		return fmt.Errorf("core: checkpoint vocabulary has %d words, more than %d", len(p.Words), maxCheckpointVocabSize)
	case c.MaxSeqLen < 4 || c.MaxSeqLen > maxCheckpointMaxSeqLen:
		// [CLS] plus the three [SEP]s of a (q, t, f) sequence need 4 positions.
		return fmt.Errorf("core: checkpoint MaxSeqLen %d outside [4, %d]", c.MaxSeqLen, maxCheckpointMaxSeqLen)
	case c.TargetScale == 0 || math.IsNaN(c.TargetScale) || math.IsInf(c.TargetScale, 0):
		return fmt.Errorf("core: checkpoint TargetScale %v is not a finite non-zero scale", c.TargetScale)
	}
	for i, w := range p.Weights {
		for j, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: checkpoint weight %d of tensor %d is %v", j, i, v)
			}
		}
	}
	return nil
}

// Save serializes the trained model. The paired loader is LoadModel.
func (m *Model) Save(w io.Writer) error {
	payload := savedModel{
		Version: persistVersion,
		Cfg:     m.Cfg,
		Words:   m.tok.Words(),
		Weights: m.params.Snapshot(),
	}
	return gob.NewEncoder(w).Encode(&payload)
}

// LoadModel reconstructs a model saved with Save. The database must be the
// one the model was trained over (fact IDs are how Rank resolves lineage
// members to token sequences). A checkpoint whose configuration or weights
// fail checkCheckpoint is rejected with an error before any network is built.
func LoadModel(r io.Reader, db *relation.Database) (*Model, error) {
	var payload savedModel
	if err := gob.NewDecoder(r).Decode(&payload); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	if payload.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported model version %d", payload.Version)
	}
	if err := checkCheckpoint(&payload); err != nil {
		return nil, err
	}
	tok, err := tokenizer.FromWords(payload.Words)
	if err != nil {
		return nil, fmt.Errorf("core: restore vocabulary: %w", err)
	}
	// The RNG only sets the pre-restore initialization, which Restore then
	// overwrites entirely; any seed works.
	m := newModel(payload.Cfg, tok, rand.New(rand.NewSource(payload.Cfg.Seed)))
	m.trainDB = db
	if len(payload.Weights) != len(m.params.All()) {
		return nil, fmt.Errorf("core: weight tensor count %d does not match architecture (%d)",
			len(payload.Weights), len(m.params.All()))
	}
	for i, p := range m.params.All() {
		if len(payload.Weights[i]) != len(p.W) {
			return nil, fmt.Errorf("core: tensor %q has %d weights, file has %d",
				p.Name, len(p.W), len(payload.Weights[i]))
		}
	}
	m.params.Restore(payload.Weights)
	return m, nil
}
