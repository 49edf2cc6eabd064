package main

import (
	"fmt"
	"os"
	"path/filepath"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/obs"
)

// rootName is the XML root every workload's documents get.
const rootName = "resume"

// newPipeline assembles the pipeline every workload runs: the paper's
// resume vocabulary and constraints with the library's default thresholds.
// tr is the pipeline's tracer; nil means none.
func newPipeline(tr obs.Tracer) (*core.Pipeline, error) {
	return core.New(core.Config{
		Concepts:    concept.ResumeConcepts(),
		Constraints: concept.ResumeConstraints(),
		RootName:    rootName,
		Tracer:      tr,
	})
}

// newConverter returns a converter configured exactly like p's, for the
// traced replays that call the conversion layers one by one.
func newConverter(p *core.Pipeline) *convert.Converter {
	return convert.New(p.Set(), convert.Options{RootName: rootName, Constraints: concept.ResumeConstraints()})
}

// generator returns the seeded resume generator. One generator over one
// shared concept set produces the whole corpus; building a set per
// document would cost more than converting it.
func generator(seed int64, set *concept.Set) *corpus.Generator {
	return corpus.New(corpus.Options{Seed: seed, Set: set})
}

// corpusFile names document i of a corpus directory.
func corpusFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.html", i))
}

// docName is the source name of document i.
func docName(i int) string { return fmt.Sprintf("doc-%06d", i) }

// writeCorpus generates n resumes into dir, one file each, so a build reads
// its inputs lazily from disk and none of them stays on the heap.
func writeCorpus(dir string, n int, seed int64, set *concept.Set) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := generator(seed, set)
	for i := 0; i < n; i++ {
		if err := os.WriteFile(corpusFile(dir, i), []byte(g.Resume().HTML), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// corpusSource is the lazy source provider over a corpus directory.
func corpusSource(dir string) func(int) (core.Source, error) {
	return func(i int) (core.Source, error) {
		b, err := os.ReadFile(corpusFile(dir, i))
		if err != nil {
			return core.Source{}, err
		}
		return core.Source{Name: docName(i), HTML: string(b)}, nil
	}
}

// shardRange mirrors the sharded build's split of n sources into
// contiguous ranges, so the traced replay and the latency probe assign
// each document to the same shard the build does.
func shardRange(n, shards, i int) (start, end int) {
	base, rem := n/shards, n%shards
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}
