package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// renderDiskRepo flattens a stored repository (any Store backing) to its
// deterministic text artifacts, mirroring renderRepo for built ones.
func renderDiskRepo(t *testing.T, r *repository.Repository) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.DTD().Render())
	for i := 0; i < r.Len(); i++ {
		b.WriteString(r.Store().Name(i))
		b.WriteString("\n")
		xml, err := r.Store().XML(i)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		b.Write(xml)
	}
	return b.String()
}

// singleProcessRepo is the reference output: the batch in-memory build
// exported to a repository.
func singleProcessRepo(t *testing.T, sources []Source) *repository.Repository {
	t.Helper()
	repo, err := resumePipeline(t).BuildRepository(sources)
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

// TestShardRangePartition: shard ranges are a contiguous partition of
// [0, n) in shard order, for every split.
func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 100, 101} {
		for shards := 1; shards <= 9 && shards <= n; shards++ {
			next := 0
			for i := 0; i < shards; i++ {
				start, end := shardRange(n, shards, i)
				if start != next || end < start {
					t.Fatalf("n=%d shards=%d: shard %d range [%d,%d), want start %d", n, shards, i, start, end, next)
				}
				next = end
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: ranges cover [0,%d), want [0,%d)", n, shards, next, n)
			}
		}
	}
}

// TestBuildShardedMatchesBuild is the tentpole contract: 2-shard and
// 8-shard disk-backed builds produce a repository, DTD, and conformed XML
// byte-identical to the single-process in-memory build — and a re-run over
// the same directory (which resumes every shard's completed state) again.
func TestBuildShardedMatchesBuild(t *testing.T) {
	sources := corpusSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))

	for _, shards := range []int{1, 2, 8} {
		dir := t.TempDir()
		for pass, label := range []string{"fresh", "rerun"} {
			res, err := resumePipeline(t).BuildSharded(context.Background(), sources, ShardOptions{
				Shards:          shards,
				Dir:             dir,
				CheckpointEvery: 5,
			})
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, label, err)
			}
			if got := renderDiskRepo(t, res.Repo); got != want {
				t.Fatalf("shards=%d %s: sharded output differs from single-process build", shards, label)
			}
			if res.TotalInput != len(sources) || len(res.Quarantined) != 0 {
				t.Fatalf("shards=%d %s: input %d, quarantined %d", shards, label, res.TotalInput, len(res.Quarantined))
			}
			if err := res.Repo.Store().Close(); err != nil {
				t.Fatal(err)
			}
			// The final directory is a self-contained disk repository.
			if pass == 0 {
				reloaded, err := repository.LoadDisk(dir+"/final", repository.DiskOptions{})
				if err != nil {
					t.Fatalf("shards=%d: LoadDisk: %v", shards, err)
				}
				if got := renderDiskRepo(t, reloaded); got != want {
					t.Fatalf("shards=%d: LoadDisk output differs", shards)
				}
				reloaded.Store().Close()
			}
		}
	}
}

// TestBuildShardedMatchesBuildAcrossParallelism: fed the same sources in
// the same order, the sharded build's DTD and conformed repository are
// byte-identical to the single-process build's across worker counts and
// shard counts, including the defaults (zero values).
func TestBuildShardedMatchesBuildAcrossParallelism(t *testing.T) {
	sources := corpusSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))

	for _, tc := range []struct{ parallelism, shards int }{
		{1, 1}, {2, 3}, {4, 8}, {0, 0}, {8, 2},
	} {
		p, err := New(testConfig(nil, tc.parallelism))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.BuildSharded(context.Background(), sources, ShardOptions{
			Shards: tc.shards,
			Dir:    t.TempDir(),
		})
		if err != nil {
			t.Fatalf("parallelism=%d shards=%d: %v", tc.parallelism, tc.shards, err)
		}
		if got := renderDiskRepo(t, res.Repo); got != want {
			t.Errorf("parallelism=%d shards=%d: sharded repository differs from single-process build",
				tc.parallelism, tc.shards)
		}
		if res.Repo.Len() != len(sources) {
			t.Errorf("parallelism=%d shards=%d: %d documents, want %d",
				tc.parallelism, tc.shards, res.Repo.Len(), len(sources))
		}
		if err := res.Repo.Store().Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBuildShardedKillResume kills one shard mid-convert (after its last
// checkpoint) and checks the next build over the same directory resumes
// from the checkpoint and still produces byte-identical output.
func TestBuildShardedKillResume(t *testing.T) {
	sources := corpusSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	dir := t.TempDir()

	coll := obs.NewCollector()
	p, err := New(testConfig(coll, 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.BuildSharded(context.Background(), sources, ShardOptions{
		Shards:          2,
		Dir:             dir,
		CheckpointEvery: 4,
		kill: func(shard, done int) bool {
			// Die between checkpoints, so the unflushed tail of the segment
			// is lost and resume must truncate back to the checkpoint.
			return shard == 1 && done == 7
		},
	})
	if !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}

	res, err := p.BuildSharded(context.Background(), sources, ShardOptions{
		Shards:          2,
		Dir:             dir,
		CheckpointEvery: 4,
	})
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("kill+resume output differs from single-process build")
	}
	if got := coll.Snapshot().Counters[obs.CtrShardsResumed]; got < 1 {
		t.Fatalf("shard.resumed = %d, want >= 1", got)
	}
}

// TestBuildShardedEvictionIdentical: a 1-document LRU cap on every decoded
// read path never changes build output, and the resulting repository still
// answers queries identically to the in-memory one.
func TestBuildShardedEvictionIdentical(t *testing.T) {
	sources := corpusSources(20, 23)
	single := singleProcessRepo(t, sources)
	want := renderDiskRepo(t, single)

	res, err := resumePipeline(t).BuildSharded(context.Background(), sources, ShardOptions{
		Shards: 2,
		Dir:    t.TempDir(),
		Store:  repository.DiskOptions{MaxResidentDocs: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("1-doc LRU cap changed build output")
	}
	// Query through the path index (which decodes every document through
	// the 1-doc LRU) and compare counts against the in-memory repository.
	for _, expr := range []string{"//name", "//education//degree", "//skill"} {
		got, err := res.Repo.Count(expr)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := single.Count(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got != wantN {
			t.Fatalf("query %q: %d matches on disk repo, %d in memory", expr, got, wantN)
		}
	}
}

// TestBuildShardedChaosQuarantine: injected conversion faults quarantine
// documents in the sharded build exactly as in the single-process build,
// and the surviving output stays byte-identical.
func TestBuildShardedChaosQuarantine(t *testing.T) {
	sources := chaosSources(40, 21)
	newInjector := func() *faultinject.Stage {
		return faultinject.NewStage(faultinject.StageConfig{
			Seed:   1,
			Rate:   0.2,
			Stages: []string{obs.StageConvert},
		})
	}
	cfg := chaosConfig(newInjector(), nil)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.BuildSharded(context.Background(), sources, ShardOptions{
		Shards:          4,
		Dir:             t.TempDir(),
		CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if len(res.Quarantined) == 0 {
		t.Fatal("injector fired no faults; test is vacuous")
	}

	singleCfg := chaosConfig(newInjector(), nil)
	sp, err := New(singleCfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := sp.BuildRepository(sources)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDiskRepo(t, res.Repo), renderDiskRepo(t, single); got != want {
		t.Fatal("sharded chaos output differs from single-process chaos build")
	}
}

// TestDiskStoreRoundTripsGoldenCorpus: every converted document of the
// golden corpus — including documents degraded by resource limits — stores
// and reloads byte-identically through the disk store.
func TestDiskStoreRoundTripsGoldenCorpus(t *testing.T) {
	sources := corpusSources(12, 99) // the golden corpus parameters
	cfg := testConfig(nil, 0)
	cfg.Limits = Limits{MaxTokens: 60} // force at least one degraded doc
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := repository.CreateDiskStore(dir, repository.DiskOptions{MaxResidentDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	degraded := 0
	for i, s := range sources {
		d, deg, failed := p.ConvertSource(s)
		if failed != nil {
			t.Fatalf("%s: %v", s.Name, failed)
		}
		if deg != nil {
			degraded++
		}
		xml := []byte(xmlout.Marshal(d.XML))
		want = append(want, xml)
		if err := store.AppendXML(fmt.Sprintf("doc-%d", i), xml); err != nil {
			t.Fatal(err)
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded documents; tighten Limits so the test covers them")
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = repository.OpenDiskStore(dir, repository.DiskOptions{MaxResidentDocs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i, w := range want {
		got, err := store.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("doc %d raw bytes differ after reload", i)
		}
		root, err := store.Doc(i)
		if err != nil {
			t.Fatal(err)
		}
		if xmlout.Marshal(root) != string(w) {
			t.Fatalf("doc %d decode+marshal differs after reload", i)
		}
	}
}

// TestBuildShardedLazySources: the BuildShardedFrom provider is called
// lazily per index and the output matches the eager slice path.
func TestBuildShardedLazySources(t *testing.T) {
	sources := corpusSources(15, 31)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	var calls int64
	res, err := resumePipeline(t).BuildShardedFrom(context.Background(), len(sources), func(i int) (Source, error) {
		atomic.AddInt64(&calls, 1)
		return sources[i], nil
	}, ShardOptions{Shards: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("lazy-source sharded build differs from single-process build")
	}
	if calls != int64(len(sources)) {
		t.Fatalf("provider called %d times, want %d", calls, len(sources))
	}
}

// TestBuildShardedEmpty mirrors Build's empty-corpus error.
func TestBuildShardedEmpty(t *testing.T) {
	if _, err := resumePipeline(t).BuildSharded(context.Background(), nil, ShardOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("empty corpus should error")
	}
}

// TestBuildShardedCancel cancels mid-convert and expects the context error
// and no final repository.
func TestBuildShardedCancel(t *testing.T) {
	sources := corpusSources(10, 3)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := resumePipeline(t).BuildShardedFrom(ctx, len(sources), func(i int) (Source, error) {
		if i == 4 {
			cancel()
		}
		return sources[i], nil
	}, ShardOptions{Shards: 2, Dir: dir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "final")); !os.IsNotExist(err) {
		t.Fatalf("cancelled build wrote a final repository (err=%v)", err)
	}
}

// TestBuildShardedRejectsBadState: a shard checkpoint that cannot be read,
// does not decode, or carries an unknown version fails the resume with an
// error and leaves the shard's converted segment untouched — it is never
// silently discarded and rebuilt.
func TestBuildShardedRejectsBadState(t *testing.T) {
	sources := corpusSources(30, 17)
	for _, tc := range []struct {
		name   string
		tamper func(path string) error
	}{
		{"unknown version", func(path string) error {
			return os.WriteFile(path, []byte(`{"version":99,"start":0,"end":15,"done":4,"stored":4}`), 0o644)
		}},
		{"undecodable", func(path string) error {
			return os.WriteFile(path, []byte(`{"version":1,"start":`), 0o644)
		}},
		{"unreadable", func(path string) error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Mkdir(path, 0o755)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := ShardOptions{Shards: 2, Dir: dir, CheckpointEvery: 4}
			killed := opts
			killed.kill = func(shard, done int) bool { return shard == 0 && done == 7 }
			if _, err := resumePipeline(t).BuildSharded(context.Background(), sources, killed); !errors.Is(err, errShardKilled) {
				t.Fatalf("killed build returned %v, want errShardKilled", err)
			}
			sdir := shardDir(dir, 0)
			if err := tc.tamper(filepath.Join(sdir, shardStateFile)); err != nil {
				t.Fatal(err)
			}
			before := readTree(t, filepath.Join(sdir, "conv"))

			if _, err := resumePipeline(t).BuildSharded(context.Background(), sources, opts); err == nil {
				t.Fatal("resume over a bad shard checkpoint succeeded")
			}
			if after := readTree(t, filepath.Join(sdir, "conv")); !maps.Equal(before, after) {
				t.Fatal("resume over a bad shard checkpoint rewrote the shard's conv segment")
			}
		})
	}
}

// TestBuildShardedResplitStartsFresh: checkpoints for a different shard
// split are not resumed — each shard starts fresh — and the output is
// still byte-identical.
func TestBuildShardedResplitStartsFresh(t *testing.T) {
	sources := corpusSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	dir := t.TempDir()
	_, err := resumePipeline(t).BuildSharded(context.Background(), sources, ShardOptions{
		Shards: 2, Dir: dir, CheckpointEvery: 4,
		kill: func(shard, done int) bool { return shard == 1 && done == 7 },
	})
	if !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}
	coll := obs.NewCollector()
	p, err := New(testConfig(coll, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.BuildSharded(context.Background(), sources, ShardOptions{Shards: 3, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("re-split build differs from single-process build")
	}
	if got := coll.Counter(obs.CtrShardsResumed); got != 0 {
		t.Fatalf("shard.resumed = %d after a re-split, want 0", got)
	}
}

// readTree maps every regular file under dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatalf("%s holds no files", dir)
	}
	return out
}

// TestBuildShardedResumesV1State: a version-1 shard checkpoint, which also
// carried a serialized accumulator, still resumes, and its accumulator is
// ignored in favour of refolding the conv segment. The hand-made "acc"
// here folds a single unrelated document, so using it would change the
// output.
func TestBuildShardedResumesV1State(t *testing.T) {
	sources := corpusSources(30, 17)
	want := renderDiskRepo(t, singleProcessRepo(t, sources))
	dir := t.TempDir()
	opts := ShardOptions{Shards: 2, Dir: dir, CheckpointEvery: 4}
	killed := opts
	killed.kill = func(shard, done int) bool { return shard == 1 && done == 7 }
	p := resumePipeline(t)
	if _, err := p.BuildSharded(context.Background(), sources, killed); !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}

	path := filepath.Join(shardDir(dir, 1), shardStateFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v1 map[string]any
	if err := json.Unmarshal(data, &v1); err != nil {
		t.Fatal(err)
	}
	d, _, failed := p.ConvertSource(corpusSources(1, 99)[0])
	if failed != nil {
		t.Fatal(failed)
	}
	stale := schema.NewAccumulator(0)
	stale.Add(0, p.ExtractPaths(d))
	v1["version"], v1["acc"] = 1, stale
	if data, err = json.Marshal(v1); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	coll := obs.NewCollector()
	rp, err := New(testConfig(coll, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rp.BuildSharded(context.Background(), sources, opts)
	if err != nil {
		t.Fatalf("resume over a v1 checkpoint: %v", err)
	}
	defer res.Repo.Store().Close()
	if got := renderDiskRepo(t, res.Repo); got != want {
		t.Fatal("resume over a v1 checkpoint differs from the single-process build")
	}
	if got := coll.Counter(obs.CtrShardsResumed); got < 1 {
		t.Fatalf("shard.resumed = %d, want >= 1", got)
	}
	// The next checkpoint rewrote the state as the current version.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var v2 map[string]any
	if err := json.Unmarshal(data, &v2); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2["acc"]; ok || v2["version"] != float64(shardStateVersion) {
		t.Fatalf("rewritten checkpoint: version %v, has acc %v; want version %d without acc", v2["version"], ok, shardStateVersion)
	}
}

// TestShardRefoldMatchesUninterrupted kills shard 0 at several points,
// including right before and right after a quarantined document, and
// checks that the accumulator refolded from the checkpointed segment
// marshals to the same JSON as the live accumulator of an uninterrupted
// shard that stopped at the same Done.
func TestShardRefoldMatchesUninterrupted(t *testing.T) {
	sources := chaosSources(40, 31)
	newPipeline := func() *Pipeline {
		p, err := New(chaosConfig(faultinject.NewStage(faultinject.StageConfig{
			Seed:         17,
			Rate:         0.15,
			Stages:       []string{obs.StageConvert},
			FaultsPerKey: -1,
		}), nil))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	const shard0 = 20 // shard 0 of a 2-shard split covers [0, 20)
	full, err := newPipeline().Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	quarantined := quarantinedNames(full.Quarantined)
	q := -1
	for i := 1; i < shard0-1 && q < 0; i++ {
		if quarantined[sources[i].Name] {
			q = i
		}
	}
	if q < 0 {
		t.Fatal("no quarantined document inside shard 0; the test needs one")
	}
	at := func(i int) (Source, error) { return sources[i], nil }

	for _, done := range []int{1, q, q + 1, 13, shard0 - 1} {
		dir := t.TempDir()
		p := newPipeline()
		// Checkpoint after every document and die one document past done,
		// so the durable state stops exactly at done.
		_, err := p.BuildShardedFrom(context.Background(), len(sources), at, ShardOptions{
			Shards: 2, Dir: dir, CheckpointEvery: 1,
			kill: func(shard, d int) bool { return shard == 0 && d == done+1 },
		})
		if !errors.Is(err, errShardKilled) {
			t.Fatalf("done=%d: killed build returned %v, want errShardKilled", done, err)
		}
		sink, err := p.openFailureSink()
		if err != nil {
			t.Fatal(err)
		}
		sdir := shardDir(dir, 0)
		resumed, conv, err := p.openShardState(0, sdir, filepath.Join(sdir, "conv"), 0, shard0, sink)
		if err != nil {
			t.Fatalf("done=%d: %v", done, err)
		}
		conv.Close()

		// The reference is shard 0 run to completion over exactly its first
		// done sources: same start, same documents, never interrupted.
		ref, err := p.runShardConvert(context.Background(), 0, done, at,
			ShardOptions{Shards: 1, Dir: t.TempDir(), CheckpointEvery: 1}, sink)
		if err != nil {
			t.Fatalf("done=%d: reference shard: %v", done, err)
		}
		if resumed.Done != done || resumed.Stored != ref.Stored {
			t.Fatalf("done=%d: resumed state done=%d stored=%d, reference stored=%d",
				done, resumed.Done, resumed.Stored, ref.Stored)
		}
		got, err := json.Marshal(resumed.acc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(ref.acc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("done=%d: refolded accumulator differs from the uninterrupted shard's", done)
		}
	}
}

// TestShardStateSizeFlat: with no failures a shard checkpoint is the same
// size, up to the digits of its counts, whether the shard holds 100 or
// 1200 documents — the state carries no per-path statistics.
func TestShardStateSizeFlat(t *testing.T) {
	size := map[int]int64{}
	for _, n := range []int{100, 1200} {
		sources := corpusSources(n, 5)
		p := resumePipeline(t)
		sink, err := p.openFailureSink()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		st, err := p.runShardConvert(context.Background(), 0, n, func(i int) (Source, error) {
			return sources[i], nil
		}, ShardOptions{Shards: 1, Dir: dir, CheckpointEvery: defaultCheckpointEvery}, sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Quarantined)+len(st.Degraded) != 0 {
			t.Fatalf("n=%d: %d failure records; the test needs a failure-free shard", n, len(st.Quarantined)+len(st.Degraded))
		}
		fi, err := os.Stat(filepath.Join(shardDir(dir, 0), shardStateFile))
		if err != nil {
			t.Fatal(err)
		}
		size[n] = fi.Size()
	}
	// end, done and stored each gain one digit from 100 to 1200.
	if d := size[1200] - size[100]; d < 0 || d > 3 {
		t.Fatalf("state.json is %d bytes at 100 documents and %d at 1200; want equal up to 3 digits",
			size[100], size[1200])
	}
}

// TestBuildShardedResumeCorruptBlob: a checkpointed document whose blob
// no longer decodes fails the resume with an error naming the shard and
// the document, leaves the conv segment untouched and writes no final
// repository — the refold never skips a document it cannot read.
func TestBuildShardedResumeCorruptBlob(t *testing.T) {
	sources := corpusSources(30, 17)
	dir := t.TempDir()
	opts := ShardOptions{Shards: 2, Dir: dir, CheckpointEvery: 4}
	killed := opts
	killed.kill = func(shard, done int) bool { return shard == 0 && done == 7 }
	if _, err := resumePipeline(t).BuildSharded(context.Background(), sources, killed); !errors.Is(err, errShardKilled) {
		t.Fatalf("killed build returned %v, want errShardKilled", err)
	}

	// Overwrite the blob of document 2, inside the 4-document checkpoint.
	convDir := filepath.Join(shardDir(dir, 0), "conv")
	index, err := os.ReadFile(filepath.Join(convDir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(index), "\n") // header, then one line per document
	var entry struct {
		Name string `json:"name"`
		Off  int64  `json:"off"`
		Len  int    `json:"len"`
	}
	if err := json.Unmarshal([]byte(lines[1+2]), &entry); err != nil {
		t.Fatal(err)
	}
	seg, err := os.OpenFile(filepath.Join(convDir, "segment.blob"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.WriteAt(bytes.Repeat([]byte("<"), entry.Len), entry.Off); err != nil {
		t.Fatal(err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, convDir)

	_, err = resumePipeline(t).BuildSharded(context.Background(), sources, opts)
	if err == nil {
		t.Fatal("resume over a corrupt checkpointed blob succeeded")
	}
	for _, want := range []string{"shard 0", "document 2", entry.Name} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("resume error %q does not name %q", err, want)
		}
	}
	if after := readTree(t, convDir); !maps.Equal(before, after) {
		t.Fatal("failed resume rewrote the shard's conv segment")
	}
	if _, err := os.Stat(filepath.Join(dir, "final")); !os.IsNotExist(err) {
		t.Fatalf("failed resume wrote a final repository (err=%v)", err)
	}
}
