package core

import (
	"strings"
	"testing"

	"webrev/internal/concept"
	"webrev/internal/corpus"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

func resumePipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// corpusSources generates n resumes from the seeded corpus generator.
func corpusSources(n int, seed int64) []Source {
	g := corpus.New(corpus.Options{Seed: seed})
	var sources []Source
	for _, r := range g.Corpus(n) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	return sources
}

// renderRepo flattens a repository to its deterministic text artifacts.
func renderRepo(r *Repository) string {
	var b strings.Builder
	b.WriteString(r.DTD.Render())
	for i, c := range r.Conformed {
		b.WriteString(r.Docs[i].Source)
		b.WriteString("\n")
		b.WriteString(xmlout.Marshal(c))
	}
	return b.String()
}

// testConfig is the resume-domain configuration with a tracer and a
// worker count.
func testConfig(tr obs.Tracer, parallelism int) Config {
	return Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
		Parallelism: parallelism,
		Tracer:      tr,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no concepts should error")
	}
	if _, err := New(Config{Concepts: []concept.Concept{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("duplicate concepts should error")
	}
}

func TestConvertSingle(t *testing.T) {
	p := resumePipeline(t)
	doc := p.Convert("r1", `<body><h2>Education</h2><p>University of X, B.S., June 1996</p></body>`)
	if doc.Source != "r1" {
		t.Fatalf("source = %q", doc.Source)
	}
	if doc.XML.FindElement("education") == nil {
		t.Fatalf("conversion failed: %s", doc.XML.String())
	}
	if doc.Stats.Tokens == 0 {
		t.Fatal("stats not recorded")
	}
}

func TestBuildFullPipeline(t *testing.T) {
	p := resumePipeline(t)
	g := corpus.New(corpus.Options{Seed: 21})
	var sources []Source
	for _, r := range g.Corpus(40) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	if len(repo.Docs) != 40 || len(repo.Conformed) != 40 || len(repo.MapStats) != 40 {
		t.Fatalf("repo sizes: %d/%d/%d", len(repo.Docs), len(repo.Conformed), len(repo.MapStats))
	}
	if repo.Schema.Root() == nil || repo.Schema.Root().Label != "resume" {
		t.Fatalf("schema root: %+v", repo.Schema.Root())
	}
	if repo.DTD.Len() < 5 {
		t.Fatalf("DTD too small: %d elements\n%s", repo.DTD.Len(), repo.DTD.Render())
	}
	// Every mapped document must conform to the derived DTD.
	for i, c := range repo.Conformed {
		if !repo.DTD.Conforms(c) {
			t.Fatalf("doc %d does not conform after mapping: %v", i, repo.DTD.Validate(c))
		}
	}
	if repo.ConformanceRate() < 0 || repo.ConformanceRate() > 1 {
		t.Fatalf("conformance rate = %v", repo.ConformanceRate())
	}
	if repo.TotalMapCost() < 0 {
		t.Fatal("negative map cost")
	}
	dtdText := repo.DTD.Render()
	for _, want := range []string{"resume", "education", "experience"} {
		if !strings.Contains(dtdText, want) {
			t.Fatalf("DTD missing %s:\n%s", want, dtdText)
		}
	}
}

func TestBuildEmptyCorpus(t *testing.T) {
	p := resumePipeline(t)
	if _, err := p.Build(nil); err == nil {
		t.Fatal("empty corpus should error")
	}
}

func TestRepositoryAccessorsEmpty(t *testing.T) {
	r := &Repository{}
	if r.ConformanceRate() != 0 || r.TotalMapCost() != 0 {
		t.Fatal("empty repository accessors broken")
	}
}

func TestConvertAllParallelMatchesSequential(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 31})
	var sources []Source
	for _, r := range g.Corpus(30) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	seqP, err := New(Config{
		Concepts: concept.ResumeConcepts(), Constraints: concept.ResumeConstraints(),
		RootName: "resume", Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	parP, err := New(Config{
		Concepts: concept.ResumeConcepts(), Constraints: concept.ResumeConstraints(),
		RootName: "resume", Parallelism: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := seqP.ConvertAll(sources)
	par := parP.ConvertAll(sources)
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Source != par[i].Source {
			t.Fatalf("order not preserved at %d: %s vs %s", i, seq[i].Source, par[i].Source)
		}
		if !seq[i].XML.Equal(par[i].XML) {
			t.Fatalf("doc %d differs between sequential and parallel runs", i)
		}
		if seq[i].Stats != par[i].Stats {
			t.Fatalf("stats %d differ: %+v vs %+v", i, seq[i].Stats, par[i].Stats)
		}
	}
}

func TestBuildRepository(t *testing.T) {
	p := resumePipeline(t)
	g := corpus.New(corpus.Options{Seed: 41})
	var sources []Source
	for _, r := range g.Corpus(15) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	repo, err := p.BuildRepository(sources)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 15 {
		t.Fatalf("repo len = %d", repo.Len())
	}
	refs, err := repo.Query("//education")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("education not queryable")
	}
	if _, err := p.BuildRepository(nil); err == nil {
		t.Fatal("empty corpus should error")
	}
}

func TestUnifySimilarConfig(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 43})
	var sources []Source
	for _, r := range g.Corpus(60) {
		sources = append(sources, Source{Name: r.Name, HTML: r.HTML})
	}
	base, err := New(Config{
		Concepts: concept.ResumeConcepts(), Constraints: concept.ResumeConstraints(),
		RootName: "resume",
	})
	if err != nil {
		t.Fatal(err)
	}
	unified, err := New(Config{
		Concepts: concept.ResumeConcepts(), Constraints: concept.ResumeConstraints(),
		RootName: "resume", UnifySimilar: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	s1 := base.DiscoverSchema(base.ConvertAll(sources))
	s2 := unified.DiscoverSchema(unified.ConvertAll(sources))
	// Unification merges the split education entry variants, so the
	// unified schema has no more paths than the raw one.
	if s2.CountNodes() > s1.CountNodes() {
		t.Fatalf("unification grew the schema: %d -> %d", s1.CountNodes(), s2.CountNodes())
	}
}

func TestSetAccessor(t *testing.T) {
	p := resumePipeline(t)
	if p.Set().Len() != 24 {
		t.Fatalf("set size = %d", p.Set().Len())
	}
}

// TestExtractPathsOnce is the regression test for the hoisted extraction
// pass: mining twice over the same converted documents must not re-extract
// — the obs counter records each document's paths exactly once.
func TestExtractPathsOnce(t *testing.T) {
	coll := obs.NewCollector()
	p, err := New(testConfig(coll, 1))
	if err != nil {
		t.Fatal(err)
	}
	docs := p.ConvertAll(corpusSources(10, 4))
	s1 := p.DiscoverSchema(docs)
	afterFirst := coll.Counter(obs.CtrPathsExtracted)
	if afterFirst == 0 {
		t.Fatal("first mine extracted nothing")
	}
	st, _ := coll.Stage(obs.StageExtract)
	if st.Count != 10 {
		t.Fatalf("extract spans = %d, want one per document (10)", st.Count)
	}
	s2 := p.DiscoverSchema(docs)
	if got := coll.Counter(obs.CtrPathsExtracted); got != afterFirst {
		t.Fatalf("second mine re-extracted: counter %d -> %d", afterFirst, got)
	}
	if st, _ := coll.Stage(obs.StageExtract); st.Count != 10 {
		t.Fatalf("extract spans after second mine = %d, want 10", st.Count)
	}
	if s1.String() != s2.String() {
		t.Fatal("repeated mining over cached paths changed the schema")
	}
}
