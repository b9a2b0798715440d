package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
)

// trainConfig is the shortened, fixed training schedule every workload uses:
// core.BaseConfig's model and learning rates with fewer epochs and samples,
// so a training run fits a benchmark run. Workers is the host's core count.
func trainConfig() core.ModelConfig {
	cfg := core.BaseConfig()
	cfg.PretrainEpochs, cfg.PretrainPairsPerEpoch = 1, 100
	cfg.FinetuneEpochs, cfg.FinetuneSamplesPerEpoch = 1, 400
	cfg.Workers = runtime.NumCPU()
	return cfg
}

// trainSamples is the work of one core.Train call under cfg: pre-training
// pairs plus fine-tuning samples.
func trainSamples(cfg core.ModelConfig) int {
	n := cfg.FinetuneEpochs * cfg.FinetuneSamplesPerEpoch
	if len(cfg.PretrainMetrics) > 0 {
		n += cfg.PretrainEpochs * cfg.PretrainPairsPerEpoch
	}
	return n
}

// checkpoint is one trained model kept between runs of one checkout. Its
// file name carries key, which identifies the program and the schedule that
// trained it, so a run never loads a model trained by other code or another
// schedule: a change to core.BaseConfig, training, the tokenizer or the
// corpus defaults gets a fresh checkpoint, and runs of two programs in one
// tree each load their own.
type checkpoint struct {
	kind dataset.Kind
	key  string // sourceDigest of the program and a hash of trainConfig()
	path string
}

// checkpointFor names the checkpoint of a corpus kind for the program whose
// sources are under root.
func checkpointFor(dir, root string, kind dataset.Kind) (checkpoint, error) {
	src := sourceDigest(root, filepath.Join(root, "lsbench"))
	if src == "" {
		return checkpoint{}, fmt.Errorf("checkpoint key: cannot read the program's sources under %s", root)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%#v", src, kind, trainConfig())
	key := hex.EncodeToString(h.Sum(nil))[:16]
	name := fmt.Sprintf("%s-%s.gob", strings.ToLower(kind.String()), key)
	return checkpoint{kind: kind, key: key, path: filepath.Join(dir, "models", name)}, nil
}

// ensureModel returns the checkpoint of a corpus kind for this program,
// training and saving it when it is not there yet. Training is bit-identical
// for every worker count and run, so a kept checkpoint equals a fresh one;
// the serving and ranking workloads load it, as a deployed service loads its
// checkpoint. Its cost is paid once per program and checkout, outside every
// timed phase and outside setup_s; the build-train workload measures
// training.
func ensureModel(dir string, kind dataset.Kind) (checkpoint, error) {
	ck, err := checkpointFor(dir, ".", kind)
	if err != nil {
		return ck, err
	}
	if _, err := os.Stat(ck.path); err == nil {
		return ck, nil
	}
	return ck, train(ck)
}

// train builds the corpus of ck's kind, trains on it with trainConfig and
// saves the model at ck.path.
func train(ck checkpoint) error {
	kind, path := ck.kind, ck.path
	c, err := dataset.Build(dataset.DefaultConfig(kind))
	if err != nil {
		return fmt.Errorf("build %s corpus: %w", kind, err)
	}
	m, _, err := core.Train(c, dataset.NewSimilarityCache(c), trainConfig(), nil)
	if err != nil {
		return fmt.Errorf("train %s model: %w", kind, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := m.Save(w); err != nil {
		f.Close()
		return fmt.Errorf("save %s model: %w", kind, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadModel reads a checkpoint against the corpus's database.
func loadModel(ck checkpoint, c *dataset.Corpus) (*core.Model, error) {
	f, err := os.Open(ck.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.LoadModel(bufio.NewReader(f), c.DB)
	if err != nil {
		return nil, fmt.Errorf("load %s model: %w", ck.kind, err)
	}
	return m, nil
}
