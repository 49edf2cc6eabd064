// Command webrevbench is the repository's benchmark: it runs one workload
// end to end through webrev's public entry points, checks that the outputs
// are correct, and prints one JSON result line.
//
//	webrevbench --workload build-disk|serve-disk|recrawl-delta \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced replay that calls each
// layer's exported functions from this package (see README.md for the
// workloads, the metric definitions and the layer → end-to-end prediction
// table). Inputs are generated from --seed in an untimed preparation step;
// the program under test only ever sees the generated inputs.
//
// Progress goes to standard error; the last line of standard output is the
// result object. The process exits non-zero, without a result, when a
// workload cannot run at all; a failed correctness check is reported as
// "correct": false.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract and must match BENCHMARK.json (the self-test checks
// it).
type metricDef struct {
	name, unit string
}

// endToEnd is every metric a --trace 0 run prints. Every workload reports
// every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"disk_bytes_per_doc", "B"},
	{"success_ratio", "ratio"},
}

// perLayer is every metric a --trace 1 run prints. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"source.ns_per_doc", "ns"},
	{"htmlparse.ns_per_doc", "ns"},
	{"tidy.ns_per_doc", "ns"},
	{"convert.ns_per_doc", "ns"},
	{"convert.identified_ratio", "ratio"},
	{"schema.extract_ns_per_doc", "ns"},
	{"schema.fold_ns_per_doc", "ns"},
	{"schema.subtract_ns_per_doc", "ns"},
	{"schema.merge_ms", "ms"},
	{"schema.mine_ms", "ms"},
	{"schema.checkpoint_ms", "ms"},
	{"schema.checkpoint_bytes", "B"},
	{"core.checkpoints", "count"},
	{"dtd.derive_ms", "ms"},
	{"mapping.conform_ns_per_doc", "ns"},
	{"mapping.edit_cost_per_doc", "count"},
	{"xmlout.marshal_ns_per_doc", "ns"},
	{"xmlout.bytes_per_doc", "B"},
	{"repository.append_ns_per_doc", "ns"},
	{"repository.flush_ms", "ms"},
	{"repository.read_ns_per_doc", "ns"},
	{"repository.decode_ns_per_doc", "ns"},
	{"repository.open_ms", "ms"},
	{"repository.lru_hit_ratio", "ratio"},
	{"pathindex.build_ms", "ms"},
	{"pathindex.freeze_ms", "ms"},
	{"pathindex.heap_mb", "MB"},
	{"query.compile_ns", "ns"},
	{"query.eval_ns", "ns"},
	{"query.refs_per_result", "count"},
	{"serve.query.handler_us_p50", "us"},
	{"serve.query.handler_us_p99", "us"},
	{"serve.count.handler_us_p50", "us"},
	{"serve.count.handler_us_p99", "us"},
	{"serve.concept.handler_us_p50", "us"},
	{"serve.concept.handler_us_p99", "us"},
	{"serve.doc.handler_us_p50", "us"},
	{"serve.doc.handler_us_p99", "us"},
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.compile_cache_hit_ratio", "ratio"},
	{"serve.shed", "count"},
	{"net.roundtrip_overhead_us", "us"},
	{"loadgen.late_us_p99", "us"},
	{"crawler.recrawl_ms", "ms"},
	{"crawler.not_modified_ratio", "ratio"},
	{"site.handler_us", "us"},
	{"watch.self_ms", "ms"},
	{"core.unattributed_share", "ratio"},
	{"core.shard_skew", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.overhead_ratio", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// work is the run's working directory, removed when the run ends.
	work string
	// spansOut receives the traced run's spans, one JSON object a line.
	spansOut string
	sizes    sizes
	// wrongAnswer perturbs one expected answer per workload, so the
	// self-test can prove that the correctness checks can fail.
	wrongAnswer bool
}

// sizes fixes the inputs of every workload; README.md states why.
type sizes struct {
	// BuildDocs is the build-disk corpus size: two shards of BuildDocs/2,
	// each larger than the store's 256-document LRU.
	BuildDocs int
	// CheckpointEvery is the fixed shard checkpoint interval.
	CheckpointEvery int
	// ServeDocs is the serve-disk repository size (≫ the LRU).
	ServeDocs int
	// ServeQueries is the size of the serve-disk query universe, and
	// MinUniverse the least the run accepts: more than the server's
	// 4096-entry result cache.
	ServeQueries, MinUniverse int
	// RefRate is the serve-disk reference rate, in requests per second.
	RefRate float64
	// SitePages is the recrawl-delta site's resume count.
	SitePages int
	// MutateRate is the share of pages a recrawl cycle mutates.
	MutateRate float64
	// ColdCheckEvery makes every Nth delta cycle compare against a cold
	// build.
	ColdCheckEvery int
	// SetupRepeats is how many times a run repeats its set-up for setup_s.
	SetupRepeats int
}

// defaultSizes are the committed settings.
func defaultSizes() sizes {
	return sizes{
		BuildDocs:       2400,
		CheckpointEvery: 64,
		ServeDocs:       3000,
		ServeQueries:    20000,
		MinUniverse:     4097,
		RefRate:         1000,
		SitePages:       1000,
		MutateRate:      0.2,
		ColdCheckEvery:  10,
		SetupRepeats:    5,
	}
}

// outcome is what a workload hands back to main.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	// problems lists failed correctness checks.
	problems []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// check records a failed correctness check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config, *outcome) error{
	"build-disk":    runBuild,
	"serve-disk":    runServe,
	"recrawl-delta": runRecrawl,
}

func main() {
	cfg := &config{sizes: defaultSizes()}
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "build-disk, serve-disk or recrawl-delta")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fail(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.work = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if cfg.trace {
		cfg.spansOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "webrevbench:", err)
	os.Exit(1)
}

// run executes one workload in a fresh working directory and assembles its
// result.
func run(cfg *config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	out := newOutcome()
	if err := fn(cfg, out); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok && !cfg.trace {
			return nil, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
