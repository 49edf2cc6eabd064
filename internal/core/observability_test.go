package core

import (
	"testing"

	"webrev/internal/concept"
	"webrev/internal/mapping"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

func tracedPipeline(t *testing.T, tr obs.Tracer, parallelism int) *Pipeline {
	t.Helper()
	p, err := New(Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    "resume",
		Tracer:      tr,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTracerDisabledAddsNothing is the acceptance guarantee for the no-op
// path: a build under the default (nil → no-op) tracer records no stages
// and no counters anywhere, and surfaces no stats on the repository.
func TestTracerDisabledAddsNothing(t *testing.T) {
	p := tracedPipeline(t, nil, 0)
	if p.Tracer().Enabled() {
		t.Fatal("default tracer must be disabled")
	}
	repo, err := p.Build(corpusSources(6, 11))
	if err != nil {
		t.Fatal(err)
	}
	if repo.Stages != nil {
		t.Fatalf("no-op build surfaced stages: %v", repo.Stages)
	}
	if p.Metrics() != nil {
		t.Fatal("no-op pipeline returned a metrics snapshot")
	}
}

// TestTracerEnabledRecordsAllStages is the acceptance guarantee for the
// enabled path: one Build records named timings for every pipeline stage
// (convert, extract, mine, derive, map) and non-zero counters for the
// paper's measured quantities, retrievable via Pipeline.Metrics,
// Repository.Stages, and the JSON snapshot writer.
func TestTracerEnabledRecordsAllStages(t *testing.T) {
	c := obs.NewCollector()
	p := tracedPipeline(t, c, 0)
	sources := corpusSources(6, 11)
	repo, err := p.Build(sources)
	if err != nil {
		t.Fatal(err)
	}

	for _, stage := range obs.PipelineStages {
		st, ok := repo.Stages[stage]
		if !ok {
			t.Fatalf("stage %q not recorded; have %v", stage, repo.Stages)
		}
		if st.Count == 0 || st.Total <= 0 {
			t.Fatalf("stage %q recorded but empty: %+v", stage, st)
		}
	}
	// Per-document stages ran once per document.
	if got := repo.Stages[obs.StageConvert].Count; got != int64(len(sources)) {
		t.Fatalf("convert spans = %d, want %d", got, len(sources))
	}
	if got := repo.Stages[obs.StageMap].Count; got != int64(len(sources)) {
		t.Fatalf("map spans = %d, want %d", got, len(sources))
	}

	snap := p.Metrics()
	if snap == nil {
		t.Fatal("Metrics() returned nil with a collector attached")
	}
	for _, ctr := range []string{
		obs.CtrDocsConverted, obs.CtrBytesIn, obs.CtrBytesOut,
		obs.CtrTokens, obs.CtrTokensIdent, obs.CtrConceptNodes,
		obs.CtrPathsExtracted, obs.CtrPathsExplored, obs.CtrPathsFrequent,
		obs.CtrDTDElements, obs.CtrMapDocs,
	} {
		if snap.Counters[ctr] <= 0 {
			t.Fatalf("counter %q = %d, want > 0\ncounters: %v",
				ctr, snap.Counters[ctr], snap.Counters)
		}
	}
	if got := snap.Counters[obs.CtrDocsConverted]; got != int64(len(sources)) {
		t.Fatalf("docs.converted = %d, want %d", got, len(sources))
	}
	// Conversion sub-spans are present too.
	for _, sub := range []string{"convert.parse", "convert.tokenize", "convert.group", "convert.consolidate"} {
		if snap.Stages[sub].Count == 0 {
			t.Fatalf("conversion sub-span %q missing; stages: %v", sub, snap.Stages)
		}
	}
}

// TestBuildParallelMatchesSerial proves the parallelized DTD-guided mapping
// loop (and parallel conversion) is deterministic: a serial build and a
// heavily parallel build of the same corpus yield byte-identical conformed
// documents, aligned MapStats, and the same schema/DTD. Run under -race
// this also exercises the worker pool for data races on the shared
// collector and result slices.
func TestBuildParallelMatchesSerial(t *testing.T) {
	sources := corpusSources(24, 7)

	serial, err := tracedPipeline(t, nil, 1).Build(sources)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := tracedPipeline(t, obs.NewCollector(), 8).Build(sources)
	if err != nil {
		t.Fatal(err)
	}

	if len(serial.Conformed) != len(parallel.Conformed) || len(parallel.Conformed) != len(sources) {
		t.Fatalf("length mismatch: serial %d, parallel %d, sources %d",
			len(serial.Conformed), len(parallel.Conformed), len(sources))
	}
	if s, p := serial.DTD.Render(), parallel.DTD.Render(); s != p {
		t.Fatalf("DTDs differ:\nserial:\n%s\nparallel:\n%s", s, p)
	}
	for i := range serial.Conformed {
		if serial.MapStats[i] != parallel.MapStats[i] {
			t.Fatalf("doc %d (%s): MapStats differ: serial %+v, parallel %+v",
				i, sources[i].Name, serial.MapStats[i], parallel.MapStats[i])
		}
		s, p := xmlout.Marshal(serial.Conformed[i]), xmlout.Marshal(parallel.Conformed[i])
		if s != p {
			t.Fatalf("doc %d (%s): conformed XML differs:\nserial:\n%s\nparallel:\n%s",
				i, sources[i].Name, s, p)
		}
	}
	if serial.TotalMapCost() != parallel.TotalMapCost() {
		t.Fatalf("map cost: serial %d, parallel %d",
			serial.TotalMapCost(), parallel.TotalMapCost())
	}
}

// TestRepositoryStatsPartial covers the ConformanceRate/TotalMapCost guards
// for empty and partial repositories.
func TestRepositoryStatsPartial(t *testing.T) {
	empty := &Repository{}
	if got := empty.ConformanceRate(); got != 0 {
		t.Fatalf("empty ConformanceRate = %v, want 0", got)
	}
	if got := empty.TotalMapCost(); got != 0 {
		t.Fatalf("empty TotalMapCost = %v, want 0", got)
	}
	// Stats but no docs (inconsistent input): still defined, still 0.
	orphan := &Repository{MapStats: []mapping.EditStats{{Inserted: 3}}}
	if got := orphan.ConformanceRate(); got != 0 {
		t.Fatalf("orphan ConformanceRate = %v, want 0", got)
	}
	if got := orphan.TotalMapCost(); got != 0 {
		t.Fatalf("orphan TotalMapCost = %v, want 0 (no docs mapped)", got)
	}

	// Partial build: 4 docs, only 2 mapped — one clean, one with edits.
	partial := &Repository{
		Docs: []*Document{{Source: "a"}, {Source: "b"}, {Source: "c"}, {Source: "d"}},
		MapStats: []mapping.EditStats{
			{},            // conformed without edits
			{Inserted: 2}, // needed 2 edits
		},
	}
	if got := partial.MappedDocs(); got != 2 {
		t.Fatalf("MappedDocs = %d, want 2", got)
	}
	if got, want := partial.ConformanceRate(), 0.25; got != want {
		t.Fatalf("partial ConformanceRate = %v, want %v (unmapped docs are non-conforming)", got, want)
	}
	if got := partial.TotalMapCost(); got != 2 {
		t.Fatalf("partial TotalMapCost = %d, want 2", got)
	}
}
