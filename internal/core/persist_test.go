package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs, cfg.FinetuneEpochs = 1, 1
	cfg.PretrainPairsPerEpoch, cfg.FinetuneSamplesPerEpoch = 30, 100
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, c.DB)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on a test case.
	qi := c.Test[0]
	cs := c.Queries[qi].Cases[0]
	p1, p2 := m.RankCase(c, qi, cs), loaded.RankCase(c, qi, cs)
	if len(p1) != len(p2) {
		t.Fatalf("prediction sizes differ: %d vs %d", len(p1), len(p2))
	}
	for id, v := range p1 {
		if math.Abs(p2[id]-v) > 1e-12 {
			t.Fatalf("fact %d: %v vs %v after round trip", id, v, p2[id])
		}
	}
	// Similarity heads survive too.
	s1 := m.PredictSimilarities(c.Queries[0].SQL, c.Queries[1].SQL)
	s2 := loaded.PredictSimilarities(c.Queries[0].SQL, c.Queries[1].SQL)
	for metric, v := range s1 {
		if math.Abs(s2[metric]-v) > 1e-12 {
			t.Fatalf("%s head differs after round trip", metric)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	c, _ := tinyCorpus(t)
	if _, err := LoadModel(strings.NewReader("not a gob"), c.DB); err == nil {
		t.Error("expected decode error")
	}
}

func TestLoadModelRejectsTamperedWeights(t *testing.T) {
	c, sims := tinyCorpus(t)
	cfg := tinyConfig()
	cfg.PretrainEpochs, cfg.PretrainMetrics = 0, nil
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 1, 50
	m, _, err := Train(c, sims, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := bytes.NewReader(buf.Bytes()[:buf.Len()/2])
	if _, err := LoadModel(truncated, c.DB); err == nil {
		t.Error("expected error for truncated payload")
	}
}

// TestLoadModelIgnoresLegacyPrecision loads checkpoints written before
// ModelConfig fields were removed: Precision (the f32/int8 inference tiers)
// and TrainBatch (packed training, saved as 8 by cmd/serve). Their gobs still
// carry the field. gob drops fields the destination type lacks, so each
// checkpoint must load and rank bit-identically to the same model saved
// without it.
func TestLoadModelIgnoresLegacyPrecision(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	m := newModel(cfg, buildVocabulary(c, cfg), rand.New(rand.NewSource(cfg.Seed)))
	var plain bytes.Buffer
	if err := m.Save(&plain); err != nil {
		t.Fatal(err)
	}
	want, err := LoadModel(&plain, c.DB)
	if err != nil {
		t.Fatal(err)
	}

	for _, legacy := range []struct {
		field string
		value any
	}{
		{"Precision", "int8"},
		{"TrainBatch", 8},
	} {
		t.Run(legacy.field, func(t *testing.T) {
			// The legacy payload: savedModel with Cfg widened by the field.
			cfgT := reflect.TypeOf(m.Cfg)
			fields := make([]reflect.StructField, 0, cfgT.NumField()+1)
			for i := 0; i < cfgT.NumField(); i++ {
				fields = append(fields, cfgT.Field(i))
			}
			fields = append(fields, reflect.StructField{Name: legacy.field, Type: reflect.TypeOf(legacy.value)})
			legacyCfg := reflect.New(reflect.StructOf(fields)).Elem()
			for i := 0; i < cfgT.NumField(); i++ {
				legacyCfg.Field(i).Set(reflect.ValueOf(m.Cfg).Field(i))
			}
			legacyCfg.FieldByName(legacy.field).Set(reflect.ValueOf(legacy.value))
			payload := reflect.New(reflect.StructOf([]reflect.StructField{
				{Name: "Version", Type: reflect.TypeOf(0)},
				{Name: "Cfg", Type: legacyCfg.Type()},
				{Name: "Words", Type: reflect.TypeOf([]string(nil))},
				{Name: "Weights", Type: reflect.TypeOf([][]float64(nil))},
			})).Elem()
			payload.Field(0).SetInt(persistVersion)
			payload.Field(1).Set(legacyCfg)
			payload.Field(2).Set(reflect.ValueOf(m.tok.Words()))
			payload.Field(3).Set(reflect.ValueOf(m.params.Snapshot()))
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(payload.Addr().Interface()); err != nil {
				t.Fatal(err)
			}

			got, err := LoadModel(&buf, c.DB)
			if err != nil {
				t.Fatalf("legacy checkpoint with %s field: %v", legacy.field, err)
			}
			if !reflect.DeepEqual(got.Cfg, want.Cfg) {
				t.Fatalf("loaded config %+v, want %+v", got.Cfg, want.Cfg)
			}
			for _, in := range caseInputs(c) {
				assertValuesBitEqual(t, "legacy checkpoint", got.RankOn(c.DB, in), want.RankOn(c.DB, in))
			}
		})
	}
}

// TestLoadModelRejectsPoisonedCheckpoints feeds LoadModel one poisoned gob
// per failure mode: an architecture the encoder cannot build, sizes beyond
// the checkpoint bounds (which would otherwise become huge allocations), a
// TargetScale predictions cannot be divided by, and non-finite weights. Each
// must come back as an error — never a panic, never an allocation sized by
// the poisoned field.
func TestLoadModelRejectsPoisonedCheckpoints(t *testing.T) {
	c, _ := tinyCorpus(t)
	cfg := tinyConfig()
	m := newModel(cfg, buildVocabulary(c, cfg), rand.New(rand.NewSource(cfg.Seed)))
	var clean bytes.Buffer
	if err := m.Save(&clean); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(bytes.NewReader(clean.Bytes()), c.DB); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	for _, tc := range []struct {
		name   string
		poison func(p *savedModel)
	}{
		{"zero layers", func(p *savedModel) { p.Cfg.Layers = 0 }},
		{"negative layers", func(p *savedModel) { p.Cfg.Layers = -1 }},
		{"heads do not divide dim", func(p *savedModel) { p.Cfg.Heads = 3 }},
		{"zero heads", func(p *savedModel) { p.Cfg.Heads = 0 }},
		{"huge dim", func(p *savedModel) { p.Cfg.Dim, p.Cfg.Heads = 1<<24, 1 }},
		{"huge ffn", func(p *savedModel) { p.Cfg.FFNHidden = 1 << 30 }},
		{"huge vocab", func(p *savedModel) { p.Cfg.VocabSize = 1 << 30 }},
		{"huge max seq len", func(p *savedModel) { p.Cfg.MaxSeqLen = 1 << 30 }},
		{"max seq len below one (q, t, f) frame", func(p *savedModel) { p.Cfg.MaxSeqLen = 3 }},
		{"zero target scale", func(p *savedModel) { p.Cfg.TargetScale = 0 }},
		{"NaN target scale", func(p *savedModel) { p.Cfg.TargetScale = math.NaN() }},
		{"infinite target scale", func(p *savedModel) { p.Cfg.TargetScale = math.Inf(1) }},
		{"NaN weight", func(p *savedModel) { p.Weights[0][0] = math.NaN() }},
		{"infinite weight", func(p *savedModel) { p.Weights[len(p.Weights)-1][0] = math.Inf(-1) }},
	} {
		var p savedModel
		if err := gob.NewDecoder(bytes.NewReader(clean.Bytes())).Decode(&p); err != nil {
			t.Fatal(err)
		}
		tc.poison(&p)
		var poisoned bytes.Buffer
		if err := gob.NewEncoder(&poisoned).Encode(&p); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: LoadModel panicked: %v", tc.name, r)
				}
			}()
			if _, err := LoadModel(&poisoned, c.DB); err == nil {
				t.Errorf("%s: LoadModel accepted the poisoned checkpoint", tc.name)
			}
		}()
	}
}
