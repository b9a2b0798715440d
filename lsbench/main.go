// Command lsbench is the repository's benchmark: it runs one LearnShapley
// workload through the program's public entry points, checks the outputs, and
// prints every metric by name and unit, ending with one JSON result line.
//
//	bash lsbench/run.sh --workload serve-imdb --seed 1 --seconds 30 --trace 0
//
// Workloads, metrics and the layer table are described in lsbench/README.md.
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off; with --trace 1 it holds the per-layer metrics, from a second,
// traced pass of the same workload (the difference between the two passes
// is reported as tracing overhead).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// setupReps is how many times every workload sets up; setup_s is the median.
const setupReps = 3

// maxReportMS stands in for an infinite latency (a percentile that lands on
// a failed operation) in the JSON result, which cannot hold +Inf.
const maxReportMS = 1e9

// env is what a workload run receives.
type env struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	dir     string  // the benchmark's working directory inside the checkout
	tr      *tracer // nil when untraced
	reg     *obs.Registry
	otr     *obs.Tracer
}

func (e *env) traced() bool { return e.tr != nil }

// report is what one workload pass measured.
type report struct {
	workload  string
	attempted int
	failed    int

	setupS    []float64  // one per set-up repetition
	ops       []opSample // the workload's timed operations
	items     float64    // work items completed in the timed phase
	itemsSecs float64    // seconds the items took
	// tput, when set, is the throughput to report instead of items/itemsSecs
	// (a median over the run's windows).
	tput   float64
	heapMB float64 // live Go heap after the timed phase (liveHeapMB)

	// named holds the workload's metrics under the names the documentation
	// and the issue tracker use (rank_p99_ms, facts_per_s, ...).
	named []namedMetric
	// layers holds per-layer metrics (traced passes only).
	layers map[string]float64
	// notes are printed under the table (checks, quality, caveats).
	notes []string
	// raw keeps the per-run values recorded with the result.
	raw map[string]any
}

type namedMetric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.named = append(r.named, namedMetric{name, value, unit, note})
}

// useCheckpoint records which checkpoint the workload serves or ranks with.
func (r *report) useCheckpoint(ck checkpoint) {
	r.raw["checkpoint"] = ck.path
	r.raw["checkpoint_key"] = ck.key
	r.notef("checkpoint %s (key: program sources and training schedule)", ck.path)
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check counts one verified output; a non-nil err is a failure.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			r.notef("FAILED: %v", err)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*env) (*report, error){
	"serve-imdb":           runServe,
	"rank-academic":        runRank,
	"build-train-academic": runBuildTrain,
}

func main() {
	workload := flag.String("workload", "", "serve-imdb, rank-academic or build-train-academic")
	seed := flag.Int64("seed", 1, "workload seed: request, lineage and training-split order")
	seconds := flag.Int("seconds", 30, "seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "working directory for checkpoints, results and traces")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lsbench: usage: --workload {serve-imdb|rank-academic|build-train-academic} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	e := &env{ctx: context.Background(), seed: *seed, seconds: time.Duration(*seconds) * time.Second, dir: *dir}
	base, err := run(e)
	if err != nil {
		fail(err)
	}
	base.workload = *workload
	line := resultLine{Correct: base.failed == 0, Attempted: base.attempted, Failed: base.failed}
	var traced *report
	if *trace == 1 {
		traced, err = runTraced(e, run, *workload)
		if err != nil {
			fail(err)
		}
		line.Correct = line.Correct && traced.failed == 0
		line.Attempted += traced.attempted
		line.Failed += traced.failed
		line.Metrics = layerMetrics(base, traced)
	} else {
		line.Metrics = endToEnd(base)
	}
	printReport(base, "untraced")
	if traced != nil {
		printReport(traced, "traced")
		printLayers(line.Metrics, traced.layers)
	}
	if err := record(e, *workload, *trace, line, base, traced); err != nil {
		fmt.Fprintf(os.Stderr, "lsbench: record result: %v\n", err)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "lsbench: %v\n", err)
	os.Exit(1)
}

// runTraced repeats the workload with the program's obs registry and tracer
// installed (so its counters, histograms and spans record) and the
// benchmark's own span recorder on, then writes the spans out.
func runTraced(e *env, run func(*env) (*report, error), workload string) (*report, error) {
	te := *e
	te.tr = newTracer()
	te.reg = obs.NewRegistry()
	te.otr = obs.NewTracer()
	obs.Install(obs.NewRun("lsbench", te.reg, te.otr, obs.NewLogger(os.Stderr, obs.LevelQuiet)))
	defer obs.Uninstall()
	rep, err := run(&te)
	if err != nil {
		return nil, err
	}
	rep.workload = workload
	path := filepath.Join(e.dir, "traces", fmt.Sprintf("%s-seed%d.json", workload, e.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := te.tr.writeChrome(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rep.notef("spans written to %s (Chrome trace format)", path)
	return rep, nil
}

// summary is the end-to-end view of one report.
type summary struct {
	setupS, rssMB, heapMB, p50, p95, tput float64
	n                                     int
}

func summarize(r *report) summary {
	s := summary{
		setupS: median(r.setupS),
		p50:    finite(typicalMS(r.ops)),
		p95:    finite(tailMS(r.ops)),
		heapMB: r.heapMB,
		tput:   r.tput,
		n:      len(r.ops),
	}
	if mb, err := peakRSSMB(); err == nil {
		s.rssMB = mb
	}
	return s
}

func finite(ms float64) float64 {
	if math.IsInf(ms, 1) || math.IsNaN(ms) {
		return maxReportMS
	}
	return ms
}

// endToEnd is the untraced result: the metrics BENCHMARK.json lists as
// end_to_end. Every workload reports all of them; what an "operation" and an
// "item" are differs per workload (README.md, "End-to-end metrics").
func endToEnd(r *report) map[string]metricValue {
	s := summarize(r)
	return map[string]metricValue{
		"setup_s":          {s.setupS, "s"},
		"live_heap_mb":     {s.heapMB, "MB"},
		"op_p50_ms":        {s.p50, "ms"},
		"op_p95_ms":        {s.p95, "ms"},
		"throughput_per_s": {s.tput, "1/s"},
	}
}

// layerMetrics is the traced result: every per-layer metric in the table,
// 0 where the workload does not exercise the layer (printed as n/a), plus
// the tracing overhead against the untraced pass.
func layerMetrics(base, traced *report) map[string]metricValue {
	out := make(map[string]metricValue, len(layerTable))
	for _, l := range layerTable {
		out[l.name] = metricValue{traced.layers[l.name], l.unit}
	}
	b, t := summarize(base), summarize(traced)
	out["trace.overhead.op_p50_ms"] = metricValue{t.p50 - b.p50, "ms"}
	out["trace.overhead.op_p95_ms"] = metricValue{t.p95 - b.p95, "ms"}
	out["trace.overhead.throughput_share"] = metricValue{ratio(t.tput-b.tput, b.tput), "ratio"}
	return out
}

func printReport(r *report, pass string) {
	s := summarize(r)
	fmt.Printf("== %s (%s pass) ==\n", r.workload, pass)
	e2e := endToEnd(r)
	for _, name := range []string{"setup_s", "live_heap_mb", "op_p50_ms", "op_p95_ms", "throughput_per_s"} {
		fmt.Printf("  %-28s %14.4f %s\n", name, e2e[name].Value, e2e[name].Unit)
	}
	fmt.Printf("  set-ups (s): %s\n", fmtList(r.setupS))
	fmt.Printf("  %-28s %14.4f %s\n", "peak_rss_mb", s.rssMB, "MB (process high-water mark; not gated, it moves with GC timing)")
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-28s %14.4f %s\n", "failed_share", share, fmt.Sprintf("ratio (%d of %d checks failed)", r.failed, r.attempted))
	for _, m := range r.named {
		fmt.Printf("  %-28s %14.4f %s\n", m.name, m.value, strings.TrimSpace(m.unit+" "+m.note))
	}
	fmt.Printf("  operations timed: %d; highest percentile with >= %d samples beyond it: p%.1f\n",
		s.n, minBeyond, supportedPercentile(s.n))
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}

func printLayers(m map[string]metricValue, measured map[string]float64) {
	fmt.Println("== per-layer metrics (traced pass) ==")
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		_, ok := measured[n]
		if !ok && !strings.HasPrefix(n, "trace.") {
			fmt.Printf("  %-34s %14s %s\n", n, "n/a", "(layer not exercised by this workload; reported as 0)")
			continue
		}
		fmt.Printf("  %-34s %14.4f %s%s; should move %s\n", n, v.Value, v.Unit, layerNote(n), layerMoves[n])
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, ", ")
}

// record writes the run's result with its host fingerprint, program identity,
// seed and raw per-run values under <dir>/results.
func record(e *env, workload string, trace int, line resultLine, base, traced *report) error {
	rec := map[string]any{
		"workload":       workload,
		"seed":           e.seed,
		"seconds":        e.seconds.Seconds(),
		"trace":          trace,
		"host":           host(),
		"commit":         gitCommit("."),
		"source_sha256":  sourceDigest(".", "lsbench"),
		"finished_utc":   time.Now().UTC().Format(time.RFC3339),
		"result":         line,
		"raw":            base.raw,
		"setup_s_values": base.setupS,
	}
	if traced != nil {
		rec["raw_traced"] = traced.raw
	}
	path := filepath.Join(e.dir, "results", fmt.Sprintf("%s-seed%d-trace%d-%d.json", workload, e.seed, trace, time.Now().Unix()))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gitCommit returns the checked-out commit when root is a git work tree, or
// "unknown" (benchmark checkouts are plain file trees; source_sha256 then
// identifies the program).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}
