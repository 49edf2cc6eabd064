package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
)

// chaosSources is corpusSources with source names made unique (the corpus
// generator can repeat person names): fault placement, quarantine-store
// entries, and per-key fault budgets are all keyed by source name, so
// chaos tests need distinct keys to count deterministically.
func chaosSources(n int, seed int64) []Source {
	sources := corpusSources(n, seed)
	for i := range sources {
		sources[i].Name = fmt.Sprintf("doc-%03d-%s", i, sources[i].Name)
	}
	return sources
}

// chaosConfig is testConfig plus a stage fault injector.
func chaosConfig(inject *faultinject.Stage, tr obs.Tracer) Config {
	cfg := testConfig(tr, 4)
	cfg.Inject = inject
	return cfg
}

// quarantinedNames collects the source names of a build's quarantine
// report.
func quarantinedNames(recs []FailureRecord) map[string]bool {
	out := make(map[string]bool, len(recs))
	for _, rec := range recs {
		out[rec.URL] = true
	}
	return out
}

// survivorsOf filters sources down to the ones a chaos build kept.
func survivorsOf(sources []Source, quarantined map[string]bool) []Source {
	var out []Source
	for _, s := range sources {
		if !quarantined[s.Name] {
			out = append(out, s)
		}
	}
	return out
}

// TestChaosBuildConvertPanics injects panics into >=10% of conversions and
// checks Build completes, the quarantine report matches the injector's
// tally, and the surviving output is byte-identical to a clean build over
// the surviving subset.
func TestChaosBuildConvertPanics(t *testing.T) {
	sources := chaosSources(60, 21)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   1,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	p, err := New(chaosConfig(inject, nil))
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatalf("chaos build failed outright: %v", err)
	}
	if inject.Total() < 6 { // 10% of 60
		t.Fatalf("injector fired %d faults, want >= 6 for a meaningful test", inject.Total())
	}
	if len(repo.Quarantined) != inject.Total() {
		t.Fatalf("quarantined %d documents, injector fired %d", len(repo.Quarantined), inject.Total())
	}
	for _, rec := range repo.Quarantined {
		if rec.Kind != FailPanic || rec.Stage != obs.StageConvert || rec.Stack == "" {
			t.Fatalf("malformed quarantine record: %+v", rec)
		}
	}
	if len(repo.Docs) != len(sources)-len(repo.Quarantined) {
		t.Fatalf("docs %d + quarantined %d != input %d", len(repo.Docs), len(repo.Quarantined), len(sources))
	}

	clean, err := resumePipeline(t).Build(survivorsOf(sources, quarantinedNames(repo.Quarantined)))
	if err != nil {
		t.Fatal(err)
	}
	if renderRepo(repo) != renderRepo(clean) {
		t.Fatal("chaos build's surviving output differs from a clean build over the survivors")
	}
}

// TestChaosBuildShardedConvertPanics is the sharded counterpart: panics
// in the shard conversion workers quarantine documents without breaking the
// build, and the surviving output matches a clean batch build over the
// survivors.
func TestChaosBuildShardedConvertPanics(t *testing.T) {
	sources := chaosSources(60, 21)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   1,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	p, err := New(chaosConfig(inject, nil))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.BuildSharded(context.Background(), sources, ShardOptions{Shards: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("chaos sharded build failed outright: %v", err)
	}
	defer res.Repo.Store().Close()
	if inject.Total() < 6 {
		t.Fatalf("injector fired %d faults, want >= 6", inject.Total())
	}
	if len(res.Quarantined) != inject.Total() {
		t.Fatalf("quarantined %d documents, injector fired %d", len(res.Quarantined), inject.Total())
	}
	clean := singleProcessRepo(t, survivorsOf(sources, quarantinedNames(res.Quarantined)))
	if renderDiskRepo(t, res.Repo) != renderDiskRepo(t, clean) {
		t.Fatal("chaos sharded build's surviving output differs from a clean build over the survivors")
	}
}

// TestChaosMapStageFaults injects panics and errors into the conformance
// mapping stage of both build paths: the builds complete, the quarantine
// report is populated with map-stage records, and the repository arrays
// stay aligned after compaction.
func TestChaosMapStageFaults(t *testing.T) {
	sources := chaosSources(40, 11)
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:   3,
			Rate:   0.25,
			Kinds:  []faultinject.StageKind{faultinject.StagePanic, faultinject.StageError},
			Stages: []string{obs.StageMap},
		})
	}
	// run checks one build path; build returns how many documents the
	// path kept plus its quarantine report.
	run := func(name string, build func(p *Pipeline) (kept int, quarantined []FailureRecord, err error)) {
		inject := newInjector()
		p, err := New(chaosConfig(inject, nil))
		if err != nil {
			t.Fatal(err)
		}
		kept, quarantined, err := build(p)
		if err != nil {
			t.Fatalf("%s failed outright: %v", name, err)
		}
		if inject.Total() < 4 { // 10% of 40
			t.Fatalf("%s: injector fired %d faults, want >= 4", name, inject.Total())
		}
		if len(quarantined) != inject.Total() {
			t.Fatalf("%s: quarantined %d, injector fired %d", name, len(quarantined), inject.Total())
		}
		for _, rec := range quarantined {
			if rec.Stage != obs.StageMap {
				t.Fatalf("%s: unexpected quarantine stage: %+v", name, rec)
			}
		}
		if kept+len(quarantined) != len(sources) {
			t.Fatalf("%s: docs %d + quarantined %d != input %d",
				name, kept, len(quarantined), len(sources))
		}
	}
	run("Build", func(p *Pipeline) (int, []FailureRecord, error) {
		repo, err := p.Build(sources)
		if err != nil {
			return 0, nil, err
		}
		if len(repo.Docs) != len(repo.Conformed) || len(repo.Docs) != len(repo.MapStats) {
			t.Fatalf("Build: arrays misaligned: %d docs, %d conformed, %d stats",
				len(repo.Docs), len(repo.Conformed), len(repo.MapStats))
		}
		return len(repo.Docs), repo.Quarantined, nil
	})
	run("BuildSharded", func(p *Pipeline) (int, []FailureRecord, error) {
		res, err := p.BuildSharded(context.Background(), sources, ShardOptions{Shards: 3, Dir: t.TempDir()})
		if err != nil {
			return 0, nil, err
		}
		defer res.Repo.Store().Close()
		quarantined := quarantinedNames(res.Quarantined)
		for _, name := range res.Repo.Names() {
			if quarantined[name] {
				t.Fatalf("BuildSharded: %s is both stored and quarantined", name)
			}
		}
		return res.Repo.Len(), res.Quarantined, nil
	})
}

// TestChaosErrorBudget checks both sides of the budget: a failure ratio
// over Config.MaxFailureRatio fails the build (returning the partial
// repository), and a negative budget tolerates nothing.
func TestChaosErrorBudget(t *testing.T) {
	sources := chaosSources(20, 5)
	everyDoc := faultinject.StageConfig{
		Seed:   1,
		Rate:   1.0,
		Stages: []string{obs.StageConvert},
	}

	cfg := chaosConfig(faultinject.NewStage(everyDoc), nil)
	cfg.MaxFailureRatio = 0.2
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err == nil {
		t.Fatal("build with every document quarantined succeeded")
	}
	if repo == nil || len(repo.Quarantined) != len(sources) {
		t.Fatalf("partial repository not returned with the budget error: %v", repo)
	}

	// One fault under zero tolerance also fails the build.
	oneDoc := everyDoc
	oneDoc.Rate = 0.1
	cfg = chaosConfig(faultinject.NewStage(oneDoc), nil)
	cfg.MaxFailureRatio = -1
	if p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Build(sources); err == nil {
		t.Fatal("zero-tolerance build with a quarantined document succeeded")
	}

	// The same faults under the default budget succeed.
	cfg = chaosConfig(faultinject.NewStage(oneDoc), nil)
	if p, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Build(sources); err != nil {
		t.Fatalf("build within the default budget failed: %v", err)
	}
}

// TestChaosDocTimeout injects long delays under a short per-document
// deadline: the stalled documents are abandoned and quarantined as
// timeouts.
func TestChaosDocTimeout(t *testing.T) {
	sources := chaosSources(12, 9)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   5,
		Rate:   0.3,
		Kinds:  []faultinject.StageKind{faultinject.StageDelay},
		Stages: []string{obs.StageConvert},
		Delay:  500 * time.Millisecond,
	})
	cfg := chaosConfig(inject, nil)
	cfg.Limits.DocTimeout = 30 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatalf("build failed outright: %v", err)
	}
	if len(repo.Quarantined) == 0 {
		t.Fatal("no documents quarantined despite injected stalls")
	}
	for _, rec := range repo.Quarantined {
		if rec.Kind != FailTimeout {
			t.Fatalf("stalled document quarantined as %s, want %s", rec.Kind, FailTimeout)
		}
	}
}

// TestChaosQuarantineStore checks quarantined documents persist to the
// configured directory with their original HTML, ready for replay.
func TestChaosQuarantineStore(t *testing.T) {
	sources := chaosSources(30, 13)
	inject := faultinject.NewStage(faultinject.StageConfig{
		Seed:   2,
		Rate:   0.2,
		Stages: []string{obs.StageConvert},
	})
	cfg := chaosConfig(inject, nil)
	cfg.QuarantineDir = t.TempDir()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Quarantined) == 0 {
		t.Fatal("no documents quarantined; test needs faults to be meaningful")
	}
	store, err := OpenQuarantineStore(cfg.QuarantineDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(repo.Quarantined) {
		t.Fatalf("store holds %d entries, build quarantined %d", len(entries), len(repo.Quarantined))
	}
	byName := make(map[string]string, len(sources))
	for _, s := range sources {
		byName[s.Name] = s.HTML
	}
	for _, e := range entries {
		html, err := store.HTML(e.ID)
		if err != nil {
			t.Fatal(err)
		}
		if html != byName[e.Record.URL] {
			t.Fatalf("stored HTML for %s differs from the original input", e.Record.URL)
		}
	}
}

// TestBuildShardedCheckpointResume is the crash-recovery golden test: a
// sharded build cancelled mid-convert and then resumed from its shard
// checkpoints produces output byte-identical to an uninterrupted run, and
// so does a rerun over the completed build directory.
func TestBuildShardedCheckpointResume(t *testing.T) {
	sources := chaosSources(40, 27)
	dir := t.TempDir()
	opts := ShardOptions{Shards: 2, Dir: dir, CheckpointEvery: 5}

	uninterrupted, err := resumePipeline(t).BuildSharded(context.Background(), sources,
		ShardOptions{Shards: 2, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	want := renderDiskRepo(t, uninterrupted.Repo)
	uninterrupted.Repo.Store().Close()

	newPipeline := func(tr obs.Tracer) *Pipeline {
		p, err := New(testConfig(tr, 4))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	// Cancel the first run mid-convert: the source provider cancels when
	// shard 0 reaches the middle of its range.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = newPipeline(nil).BuildShardedFrom(ctx, len(sources), func(i int) (Source, error) {
		if i == 10 {
			cancel()
		}
		return sources[i], nil
	}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(shardDir(dir, 0), shardStateFile)); err != nil {
		t.Fatalf("cancelled run left no checkpoint: %v", err)
	}

	// Resume: each shard restarts after its checkpointed prefix, and the
	// result matches the uninterrupted run byte for byte.
	coll := obs.NewCollector()
	res, err := newPipeline(coll).BuildSharded(context.Background(), sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("resumed build differs from the uninterrupted run")
	}
	res.Repo.Store().Close()
	if coll.Counter(obs.CtrShardsResumed) == 0 {
		t.Fatal("resumed build restored no shard from its checkpoint")
	}
	if converted := coll.Counter(obs.CtrDocsConverted); converted >= int64(len(sources)) {
		t.Fatalf("resumed build converted %d of %d documents; the checkpointed prefix was redone", converted, len(sources))
	}
	if coll.Counter(obs.CtrCheckpoints) == 0 {
		t.Fatal("resumed build wrote no checkpoints")
	}

	// A rerun over the completed build directory still matches.
	rerun, err := newPipeline(nil).BuildSharded(context.Background(), sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rerun.Repo.Store().Close()
	if renderDiskRepo(t, rerun.Repo) != want {
		t.Fatal("rerun over the completed build directory differs from the uninterrupted run")
	}
}

// TestBuildShardedCheckpointWithFaults combines the two robustness layers:
// a killed-and-resumed sharded build under permanent convert panics still
// matches a clean build over the surviving subset, and the quarantine
// records of the checkpointed shards survive the resume.
func TestBuildShardedCheckpointWithFaults(t *testing.T) {
	sources := chaosSources(40, 31)
	dir := t.TempDir()
	// Permanent faults: the same documents must fail again after resume.
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:         17,
			Rate:         0.15,
			Stages:       []string{obs.StageConvert},
			FaultsPerKey: -1,
		})
	}
	newPipeline := func(inject *faultinject.Stage) *Pipeline {
		p, err := New(chaosConfig(inject, nil))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	opts := ShardOptions{Shards: 2, Dir: dir, CheckpointEvery: 4}

	// Shard 1 dies between checkpoints; shard 0 completes and checkpoints
	// its whole range, quarantine records included.
	killed := opts
	killed.kill = func(shard, done int) bool { return shard == 1 && done == 7 }
	if _, err := newPipeline(newInjector()).BuildSharded(context.Background(), sources, killed); !errors.Is(err, errShardKilled) {
		t.Fatalf("killed run returned %v, want errShardKilled", err)
	}

	inject := newInjector()
	res, err := newPipeline(inject).BuildSharded(context.Background(), sources, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if len(res.Quarantined) == 0 {
		t.Fatal("no quarantine records after resume")
	}
	if res.Repo.Len()+len(res.Quarantined) != len(sources) {
		t.Fatalf("docs %d + quarantined %d != input %d",
			res.Repo.Len(), len(res.Quarantined), len(sources))
	}
	// The resumed run reconverted only what the checkpoints did not cover,
	// so some of its quarantine records were restored, not re-fired — and
	// together they are exactly an uninterrupted chaos build's report.
	if inject.Total() >= len(res.Quarantined) {
		t.Fatalf("resume re-fired %d faults for %d quarantine records; none survived the checkpoint",
			inject.Total(), len(res.Quarantined))
	}
	full, err := newPipeline(newInjector()).Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := quarantinedNames(res.Quarantined), quarantinedNames(full.Quarantined); !maps.Equal(got, want) {
		t.Fatalf("resumed quarantine report %v, uninterrupted build's %v", got, want)
	}
	clean := singleProcessRepo(t, survivorsOf(sources, quarantinedNames(res.Quarantined)))
	if renderDiskRepo(t, res.Repo) != renderDiskRepo(t, clean) {
		t.Fatal("resumed chaos build differs from a clean build over the survivors")
	}
}
