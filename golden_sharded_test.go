package webrev_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webrev"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
)

// goldenBuildSharded runs the sharded, disk-backed build over the same
// fixed corpus as goldenBuild, with a recording tracer, and renders its
// DTD and conformed documents exactly as renderGolden does.
func goldenBuildSharded(t *testing.T, shards int) (map[string]string, *webrev.Snapshot) {
	t.Helper()
	coll := webrev.NewCollector()
	pipe, err := webrev.New(webrev.Config{
		Concepts:    webrev.ResumeConcepts(),
		Constraints: webrev.ResumeConstraints(),
		RootName:    "resume",
		Tracer:      coll,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sources []webrev.Source
	for _, r := range corpus.New(corpus.Options{Seed: goldenSeed}).Corpus(goldenDocs) {
		sources = append(sources, webrev.Source{Name: r.Name, HTML: r.HTML})
	}
	res, err := pipe.BuildSharded(context.Background(), sources, core.ShardOptions{Shards: shards, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	var xml strings.Builder
	store := res.Repo.Store()
	for i := 0; i < store.Len(); i++ {
		doc, err := store.XML(i)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&xml, "<!-- %s -->\n%s\n", store.Name(i), doc)
	}
	return map[string]string{"schema.dtd": res.DTD.Render(), "conformed.xml": xml.String()}, coll.Snapshot()
}

// TestGoldenBuildSharded pins the sharded build against the same committed
// golden artifacts the batch build produces: BuildSharded on the golden
// corpus must yield a byte-identical DTD and conformed repository. Metrics
// are not compared byte-for-byte (the sharded build records its own shard
// spans and store counters) but the per-document stage counts must agree
// with the batch path.
func TestGoldenBuildSharded(t *testing.T) {
	got, snap := goldenBuildSharded(t, 3)
	dir := filepath.Join("testdata", "golden")
	for _, name := range []string{"schema.dtd", "conformed.xml"} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing golden file (run `go test -run TestGoldenBuild -update .`): %v", err)
		}
		if string(want) != got[name] {
			t.Errorf("sharded %s differs from the batch golden file\n%s",
				name, firstDiff(string(want), got[name]))
		}
	}

	if n := snap.Counters["docs.converted"]; n != goldenDocs {
		t.Errorf("docs.converted = %d, want %d", n, goldenDocs)
	}
	if st := snap.Stages[obs.StageShardMerge]; st.Count != 1 {
		t.Errorf("merge stage count = %d, want 1", st.Count)
	}
	// The per-document stages saw exactly the golden corpus.
	for _, stage := range []string{"pipeline.convert", "schema.extract", "map.conform"} {
		if st := snap.Stages[stage]; st.Count != goldenDocs {
			t.Errorf("stage %s count = %d, want %d", stage, st.Count, goldenDocs)
		}
	}
}

// TestGoldenBuildShardedDeterministic asserts two sharded builds with
// different shard counts produce byte-identical artifacts.
func TestGoldenBuildShardedDeterministic(t *testing.T) {
	a, _ := goldenBuildSharded(t, 2)
	b, _ := goldenBuildSharded(t, 5)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("%s differs across shard counts\n%s", name, firstDiff(a[name], b[name]))
		}
	}
}
