package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// tinySizes shrinks every workload so a run takes about a second.
func tinySizes() sizes {
	return sizes{
		BuildDocs:       40,
		CheckpointEvery: 8,
		ServeDocs:       60,
		ServeQueries:    400,
		MinUniverse:     64,
		RefRate:         100,
		SitePages:       12,
		MutateRate:      0.3,
		ColdCheckEvery:  2,
		SetupRepeats:    2,
	}
}

func tinyConfig(t *testing.T, workload string, trace, wrong bool) *config {
	dir := t.TempDir()
	cfg := &config{workload: workload, seed: 7, seconds: 600 * time.Millisecond, trace: trace,
		work: dir + "/work", sizes: tinySizes(), wrongAnswer: wrong}
	if trace {
		cfg.spansOut = dir + "/spans.jsonl"
	}
	return cfg
}

// TestContractMatchesBenchmarkJSON keeps the metric lists in step with the
// BENCHMARK.json beside the benchmark's directory.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, webrevbench %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], webrevbench %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, webrevbench %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and requires a correct result carrying every metric with its
// unit; end-to-end values must be positive.
func TestEveryMetricEmitted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, name, trace, false))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", name, trace, d.name, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestWrongAnswerFailsCheck proves each workload's correctness check can
// fail: with one expected answer perturbed, the run must report
// correct=false.
func TestWrongAnswerFailsCheck(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, name, trace, true))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if res.Correct {
				t.Errorf("%s trace=%v: a wrong expected answer still passed the check", name, trace)
			}
		}
	}
}

func TestQuiet(t *testing.T) {
	got := pick([]float64{10, 20, 30, 40, 50}, quiet([]float64{0, 0.05, 0.01, 0, 0.04}))
	want := []float64{10, 30, 40}
	if len(got) != len(want) {
		t.Fatalf("quiet kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quiet kept %v, want %v", got, want)
		}
	}
}

func TestWorkerTime(t *testing.T) {
	pt := &phaseTracer{}
	pt.reset()
	pt.walls["shard.convert.000"] = 4 * time.Second
	pt.walls["shard.convert.001"] = 2 * time.Second
	pt.walls["shard.map.000"] = 1 * time.Second
	pt.walls["shard.map.001"] = 3 * time.Second
	// Parallel phases take 4 s and 3 s of a 10 s wall, leaving 3 s serial.
	worker, skew, err := pt.workerTime(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if worker != float64(13*time.Second) || skew != 1 {
		t.Errorf("workerTime = %v ns, skew %v; want 13 s, 1", worker, skew)
	}
}

func TestQuantileWithInf(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{1, 2, inf}, 2},
		{[]float64{1, inf, inf}, inf},
		{[]float64{3, inf}, inf},
		{[]float64{inf, inf, inf, inf}, inf},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
