package schema

import (
	"fmt"
	"math/big"
	"sort"
)

// Accumulator folds the per-document label-path statistics the miner needs
// into a mergeable summary, so schema discovery can run incrementally: N
// workers each fold their shard of the corpus with Add, the shards combine
// with Merge (an exactly commutative and associative operation), and
// Miner.DiscoverStats mines the combined summary — producing the same
// schema, support and supportRatio values as Miner.Discover over the whole
// corpus in one slice. This is what lets the sharded build (core.
// BuildSharded) drop each document's tree as soon as its statistics are
// folded, keeping memory bounded by the summary instead of the corpus.
//
// Exactness is what makes Merge order-free. Document counts are integers;
// per-document average child positions are accumulated as exact rational
// sums (posRat — float addition is not associative, so a float accumulator
// would make the result depend on shard boundaries); child-sequence samples
// are tagged with the document's corpus index so the final sample is the
// same first-N prefix regardless of which shard saw which document.
type Accumulator struct {
	// rep is the sibling-multiplicity threshold (§3.3) repetition counts
	// were folded with; accumulators only merge when they agree.
	rep   int
	docs  int
	paths map[string]*pathAgg
	// delta disables sequence-sample compaction so every folded document's
	// sample survives verbatim and Subtract can retire it exactly. Delta
	// accumulators trade bounded memory for invertibility; see
	// NewDeltaAccumulator.
	delta bool
	// table caches Freeze()'s interned path table; any mutation (Add,
	// Merge, Subtract, UnmarshalJSON) invalidates it.
	table *PathTable
}

// pathAgg aggregates one label path's statistics across the documents a
// shard has seen.
type pathAgg struct {
	docs    int    // documents containing the path (support count)
	posSum  posRat // exact sum of per-document average child positions
	posDocs int    // documents contributing to posSum
	repDocs int    // documents where the path repeats (Mult >= rep)
	seqs    []docSeqs
	nseqs   int // total sequences held across seqs
}

// docSeqs is one document's child-label sequence sample for a path, tagged
// with the document's corpus index so samples stay in corpus order across
// shards.
type docSeqs struct {
	doc  int
	seqs [][]string
}

// NewAccumulator returns an empty accumulator using the given repetition
// threshold (<= 0 selects DefaultRepThreshold).
func NewAccumulator(repThreshold int) *Accumulator {
	if repThreshold <= 0 {
		repThreshold = DefaultRepThreshold
	}
	return &Accumulator{rep: repThreshold, paths: make(map[string]*pathAgg)}
}

// NewDeltaAccumulator returns an empty accumulator whose folds are exactly
// invertible with Subtract. It differs from NewAccumulator in one way:
// sequence samples are never compacted, because compaction irreversibly
// drops the per-document samples Subtract needs to retire. Mining a delta
// accumulator is still byte-identical to mining a compacted one over the
// same document set — the miner samples the same first-maxSeqSamples
// corpus-ordered prefix either way — so the continuous build (the watch
// loop) uses delta accumulators as its persistent shards without changing
// any derived schema or DTD.
func NewDeltaAccumulator(repThreshold int) *Accumulator {
	a := NewAccumulator(repThreshold)
	a.delta = true
	return a
}

// RepThreshold returns the repetition threshold the accumulator folds with.
func (a *Accumulator) RepThreshold() int { return a.rep }

// Delta reports whether the accumulator retains full sequence samples for
// exact retirement (NewDeltaAccumulator).
func (a *Accumulator) Delta() bool { return a.delta }

// Docs returns the number of documents folded in so far.
func (a *Accumulator) Docs() int { return a.docs }

// Add folds one document's path statistics. doc is the document's index in
// the corpus; each index must be folded into exactly one accumulator of a
// merge group, and the combined result is identical to folding every
// document into a single accumulator in index order.
func (a *Accumulator) Add(doc int, d *DocPaths) {
	a.docs++
	a.table = nil
	for p := range d.Paths {
		ag := a.paths[p]
		if ag == nil {
			ag = &pathAgg{}
			a.paths[p] = ag
		}
		ag.docs++
		if n := d.PosCount[p]; n > 0 {
			// Positions are small integers, so PosSum is an exact
			// integer-valued float; the per-document average enters the sum
			// as the exact rational PosSum/PosCount.
			ag.posSum.addFrac(int64(d.PosSum[p]), int64(n))
			ag.posDocs++
		}
		if d.Mult[p] >= a.rep {
			ag.repDocs++
		}
		if seqs := d.ChildSeqs[p]; len(seqs) > 0 {
			ag.seqs = append(ag.seqs, docSeqs{doc: doc, seqs: seqs})
			ag.nseqs += len(seqs)
			if !a.delta {
				ag.compact()
			}
		}
	}
}

// Subtract retires one previously folded document's statistics, exactly
// inverting Add(doc, d): after fold-then-subtract the accumulator is
// deep-equal to its pre-fold state (and marshals to identical JSON). The
// DocPaths must be the same value folded for doc — the caller (the watch
// loop) keeps it alongside the document in its persistent state.
//
// Subtract validates before mutating, so on error the accumulator is
// unchanged. It fails when d references a path or sequence sample the
// accumulator no longer holds — in particular when a non-delta
// accumulator compacted the sample away; continuous builds must fold into
// NewDeltaAccumulator shards.
func (a *Accumulator) Subtract(doc int, d *DocPaths) error {
	if a.docs <= 0 {
		return fmt.Errorf("schema: subtract from empty accumulator")
	}
	for p := range d.Paths {
		ag := a.paths[p]
		if ag == nil || ag.docs <= 0 {
			return fmt.Errorf("schema: subtract of unknown path %q", p)
		}
		if d.PosCount[p] > 0 && ag.posDocs <= 0 {
			return fmt.Errorf("schema: subtract of path %q: no position contributions left", p)
		}
		if d.Mult[p] >= a.rep && ag.repDocs <= 0 {
			return fmt.Errorf("schema: subtract of path %q: no repetition contributions left", p)
		}
		if len(d.ChildSeqs[p]) > 0 && !ag.hasDoc(doc) {
			return fmt.Errorf("schema: subtract of path %q: no sequence sample for document %d (compacted away? continuous shards must use NewDeltaAccumulator)", p, doc)
		}
	}
	a.docs--
	a.table = nil
	for p := range d.Paths {
		ag := a.paths[p]
		ag.docs--
		if ag.docs == 0 {
			delete(a.paths, p)
			continue
		}
		if n := d.PosCount[p]; n > 0 {
			ag.posDocs--
			if ag.posDocs == 0 {
				// Reset to the zero value rather than subtracting down to
				// 0/1, so the "no sum yet" representation matches a fresh
				// aggregate exactly.
				ag.posSum = posRat{}
			} else {
				ag.posSum.subFrac(int64(d.PosSum[p]), int64(n))
			}
		}
		if d.Mult[p] >= a.rep {
			ag.repDocs--
		}
		if len(d.ChildSeqs[p]) > 0 {
			ag.dropDoc(doc)
		}
	}
	return nil
}

// hasDoc reports whether the aggregate still holds doc's sequence sample.
func (g *pathAgg) hasDoc(doc int) bool {
	for _, ds := range g.seqs {
		if ds.doc == doc {
			return true
		}
	}
	return false
}

// dropDoc removes doc's sequence sample, preserving the order of the rest
// and restoring a nil slice when the last sample goes (so fold-then-
// subtract round-trips to deep equality).
func (g *pathAgg) dropDoc(doc int) {
	for i, ds := range g.seqs {
		if ds.doc == doc {
			g.nseqs -= len(ds.seqs)
			g.seqs = append(g.seqs[:i], g.seqs[i+1:]...)
			if len(g.seqs) == 0 {
				g.seqs = nil
			}
			return
		}
	}
}

// Merge folds b into a. It is commutative and associative: any merge tree
// over a set of accumulators yields identical statistics, provided each
// document index was folded exactly once and both sides used the same
// repetition threshold.
func (a *Accumulator) Merge(b *Accumulator) error {
	if a.rep != b.rep {
		return fmt.Errorf("schema: merging accumulators with different repetition thresholds (%d vs %d)", a.rep, b.rep)
	}
	if a.delta != b.delta {
		return fmt.Errorf("schema: merging delta and non-delta accumulators")
	}
	a.docs += b.docs
	a.table = nil
	for p, bg := range b.paths {
		ag := a.paths[p]
		if ag == nil {
			a.paths[p] = bg
			continue
		}
		ag.docs += bg.docs
		ag.posSum.addRat(&bg.posSum)
		ag.posDocs += bg.posDocs
		ag.repDocs += bg.repDocs
		ag.seqs = append(ag.seqs, bg.seqs...)
		ag.nseqs += bg.nseqs
		if !a.delta {
			ag.compact()
		}
	}
	return nil
}

// compact bounds the sequence sample. Only the first maxSeqSamples
// sequences in corpus order can ever be reported, and a document that has
// at least maxSeqSamples sequences from lower-indexed documents ahead of it
// within this accumulator has at least as many ahead of it globally — so
// everything past that point is dropped without affecting the merged
// result. Runs only when the sample has grown well past the cap, keeping
// Add amortized cheap.
func (g *pathAgg) compact() {
	if g.nseqs <= 2*maxSeqSamples {
		return
	}
	sort.Slice(g.seqs, func(i, j int) bool { return g.seqs[i].doc < g.seqs[j].doc })
	kept, total := 0, 0
	for kept < len(g.seqs) && total < maxSeqSamples {
		total += len(g.seqs[kept].seqs)
		kept++
	}
	g.seqs = g.seqs[:kept:kept]
	g.nseqs = total
}

// sample returns up to maxSeqSamples sequences for the path in corpus
// order — the same prefix Miner.Discover collects when it walks documents
// in slice order.
func (g *pathAgg) sample() [][]string {
	sort.Slice(g.seqs, func(i, j int) bool { return g.seqs[i].doc < g.seqs[j].doc })
	var out [][]string
	for _, ds := range g.seqs {
		for _, s := range ds.seqs {
			if len(out) >= maxSeqSamples {
				return out
			}
			out = append(out, s)
		}
	}
	return out
}

// avgPos returns the mean of the per-document average child positions, and
// whether any document contributed one. The quotient runs through big.Rat
// exactly as the pre-posRat implementation did, so the reported float64 is
// bit-identical.
func (g *pathAgg) avgPos() (float64, bool) {
	if g.posDocs == 0 {
		return 0, false
	}
	q := new(big.Rat).Quo(g.posSum.rat(), new(big.Rat).SetInt64(int64(g.posDocs)))
	f, _ := q.Float64()
	return f, true
}
