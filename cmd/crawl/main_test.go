package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"webrev/internal/obs"
	"webrev/internal/repository"
)

func baseOptions() options {
	return options{
		n:           5,
		distractors: 2,
		seed:        1,
		workers:     4,
		timeout:     5 * time.Second,
		retries:     2,
	}
}

func TestRunCrawlDemo(t *testing.T) {
	// Smoke test: the demo serves a site, crawls it and reports without
	// error (output goes to stdout, which the test harness captures).
	if err := run(context.Background(), baseOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoMetrics(t *testing.T) {
	o := baseOptions()
	o.metricsOut = filepath.Join(t.TempDir(), "crawl.json")
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.metricsOut)
	if err != nil {
		t.Fatalf("metrics snapshot not written: %v", err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stages[obs.StageCrawl].Count != 1 {
		t.Fatalf("crawl stage not recorded: %v", snap.Stages)
	}
	if snap.Counters[obs.CtrCrawlFetched] == 0 {
		t.Fatalf("crawl.fetched counter empty: %v", snap.Counters)
	}
}

func TestRunCrawlDemoWithFaults(t *testing.T) {
	o := baseOptions()
	o.faultRate = 0.3
	o.faultSeed = 2
	o.timeout = 500 * time.Millisecond
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoBuild(t *testing.T) {
	o := baseOptions()
	o.buildDir = t.TempDir()
	o.metricsOut = filepath.Join(t.TempDir(), "build.json")
	readSnap := func() *obs.Snapshot {
		t.Helper()
		f, err := os.Open(o.metricsOut)
		if err != nil {
			t.Fatalf("metrics snapshot not written: %v", err)
		}
		defer f.Close()
		snap, err := obs.ReadSnapshot(f)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	snap := readSnap()
	// The crawl fed the whole pipeline through the sharded build.
	if snap.Counters[obs.CtrDocsConverted] != 5 {
		t.Fatalf("docs.converted = %d, want 5", snap.Counters[obs.CtrDocsConverted])
	}
	if shards := snap.Gauges[obs.GaugeStreamShards]; shards < 1 {
		t.Fatalf("shards gauge = %d, want >= 1", shards)
	}
	if snap.Stages[obs.StageShardMerge].Count != 1 {
		t.Fatalf("merge stage not recorded: %v", snap.Stages)
	}
	repo, err := repository.LoadDisk(filepath.Join(o.buildDir, "final"), repository.DiskOptions{})
	if err != nil {
		t.Fatalf("built repository does not load: %v", err)
	}
	if repo.Len() != 5 {
		t.Fatalf("built repository holds %d documents, want 5", repo.Len())
	}
	repo.Store().Close()

	// A rerun over the same directory resumes every shard's checkpoint.
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	snap = readSnap()
	if snap.Counters[obs.CtrShardsResumed] != snap.Gauges[obs.GaugeStreamShards] {
		t.Fatalf("rerun resumed %d of %d shards", snap.Counters[obs.CtrShardsResumed], snap.Gauges[obs.GaugeStreamShards])
	}
	if snap.Counters[obs.CtrDocsConverted] != 0 {
		t.Fatalf("rerun reconverted %d documents, want 0", snap.Counters[obs.CtrDocsConverted])
	}
}

func TestRunCrawlDemoBuildCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := baseOptions()
	o.buildDir = t.TempDir()
	// Like the batch demo, cancellation reports partial progress instead of
	// failing the command.
	if err := run(ctx, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrawlDemoCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-canceled context must not error out the demo; it prints the
	// partial report instead.
	if err := run(ctx, baseOptions()); err != nil {
		t.Fatal(err)
	}
}
