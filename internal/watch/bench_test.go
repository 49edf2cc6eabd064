package watch

import (
	"context"
	"strings"
	"testing"

	"webrev/internal/core"
	"webrev/internal/faultinject"
)

// The recrawl-cycle benchmarks back the continuous-operation claim (and
// experiment E13): a steady-state cycle costs revalidation plus one
// incremental re-derive, and a delta cycle adds work proportional to the
// changed documents — both far under a cold full rebuild of the corpus.
// `make bench-recrawl` snapshots them as BENCH_recrawl.json for the CI
// bench-regression gate.

const benchCorpus = 40

// BenchmarkRecrawlSteady is the no-change cycle: every page revalidates via
// 304 and the repository re-derives from the untouched accumulator.
func BenchmarkRecrawlSteady(b *testing.B) {
	_, srv := newSite(b, benchCorpus, 1)
	w := newWatcher(b, srv, Options{})
	if _, err := w.Cycle(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Cycle(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecrawlDelta mutates ~20% of the templates before every cycle:
// the changed documents refetch, retire, and refold; the rest revalidate.
func BenchmarkRecrawlDelta(b *testing.B) { benchRecrawlDelta(b, "") }

// BenchmarkRecrawlDeltaPersisted is BenchmarkRecrawlDelta with a state
// directory, so every cycle also pays for its save.
func BenchmarkRecrawlDeltaPersisted(b *testing.B) { benchRecrawlDelta(b, b.TempDir()) }

// benchRecrawlDelta times delta cycles of a watcher persisting to stateDir
// (empty keeps state in memory only).
func benchRecrawlDelta(b *testing.B, stateDir string) {
	site, srv := newSite(b, benchCorpus, 1)
	w := newWatcher(b, srv, Options{StateDir: stateDir})
	if _, err := w.Cycle(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: int64(i), Rate: 0.2})
		mutatePages(b, site, tm)
		b.StartTimer()
		if _, err := w.Cycle(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecrawlColdRebuild is the comparison baseline: a full batch
// build of the same corpus from raw HTML, the price every cycle would pay
// without delta builds.
func BenchmarkRecrawlColdRebuild(b *testing.B) {
	site, srv := newSite(b, benchCorpus, 1)
	var sources []core.Source
	for _, path := range site.Paths() {
		if !strings.HasPrefix(path, "/resumes/") {
			continue
		}
		html, _ := site.Page(path)
		sources = append(sources, core.Source{Name: srv.URL + path, HTML: html})
	}
	p := testPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Build(sources); err != nil {
			b.Fatal(err)
		}
	}
}
