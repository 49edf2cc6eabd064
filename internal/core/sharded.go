package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"webrev/internal/dtd"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// The sharded build scales the pipeline to corpora that cannot be resident
// in one process: N independent shard workers each convert a contiguous
// range of the input, folding schema statistics into a mergeable
// accumulator (samples tagged start + segment position, which follows
// global corpus order) and appending converted XML to a per-shard disk
// segment (repository.DiskStore). A merge step folds the shard
// accumulators — the merge is exactly commutative, so the mined schema and
// derived DTD are byte-identical to a single-process build — and a second
// sharded pass maps each shard's converted documents to the DTD into
// per-shard conformed segments, which concatenate in shard order into the
// final disk-backed repository. Because shards cover contiguous
// ranges, concatenation preserves global input order, and because xmlout
// round-trips converted trees exactly, the final repository's documents are
// byte-identical to Build + Export over the same sources.
//
// Memory is flat in corpus size: a shard holds one document between
// conversion and fold, the accumulators are bounded by distinct label
// paths (not documents), and the map phase streams one document at a time
// through each shard's segment. Only the final store's decoded-DOM LRU
// (DiskOptions.MaxResidentDocs) retains trees.
//
// Each shard checkpoints durably (state.json + its flushed segment) every
// CheckpointEvery documents, so a killed shard resumes from its last
// checkpoint on the next BuildSharded over the same directory and the
// completed build is still byte-identical to an uninterrupted one. The
// checkpoint holds no statistics: resume refolds them from the segment.

// ShardOptions configures BuildSharded.
type ShardOptions struct {
	// Shards is the number of independent shard workers (default 2). It is
	// clamped to the corpus size.
	Shards int
	// Dir is the build's working directory (required): shard-NNN/
	// subdirectories hold per-shard segments and checkpoint state, final/
	// holds the resulting disk-backed repository.
	Dir string
	// CheckpointEvery is the number of documents a shard processes between
	// durable checkpoints (default 64).
	CheckpointEvery int
	// Store configures the final repository's disk store — in particular
	// MaxResidentDocs, the decoded-DOM cache bound that keeps query-time
	// memory flat.
	Store repository.DiskOptions

	// kill, when non-nil, is the crash-injection test hook: it runs after
	// each document a shard finishes, and returning true makes that shard
	// stop immediately — no final checkpoint, no segment flush — as if the
	// process died. BuildSharded then returns errShardKilled.
	kill func(shard, done int) bool
}

// ShardResult is the outcome of a sharded build.
type ShardResult struct {
	// Repo is the final repository, backed by the disk store in
	// Dir/final (which also holds schema.dtd for repository.LoadDisk).
	Repo *repository.Repository
	// Schema is the mined majority schema.
	Schema *schema.Schema
	// DTD is the DTD derived from the merged schema statistics.
	DTD *dtd.DTD
	// Quarantined aggregates the per-document failure records across all
	// shards, sorted by document source.
	Quarantined []FailureRecord
	// Degraded lists documents converted or mapped in degraded mode,
	// aggregated across shards and sorted by document source.
	Degraded []FailureRecord
	// TotalInput is the number of source documents given to the build.
	TotalInput int
	// TotalMapCost sums the edit operations conformance mapping spent.
	TotalMapCost int
	// BytesOnDisk is the final store's disk footprint (segment + index).
	BytesOnDisk int64
}

// FailureRatio returns the fraction of input documents quarantined.
func (r *ShardResult) FailureRatio() float64 { return failureRatio(len(r.Quarantined), r.TotalInput) }

// errShardKilled reports that the crash-injection hook stopped a shard
// mid-build; the shard's durable state is at its last checkpoint and a new
// BuildSharded over the same directory resumes it.
var errShardKilled = errors.New("core: shard killed")

// shardStateVersion guards the shard checkpoint format. Version 1 files
// still load; their serialized accumulator ("acc") is ignored.
const shardStateVersion = 2

// defaultCheckpointEvery is the number of documents a shard processes
// between checkpoints when ShardOptions.CheckpointEvery is unset.
const defaultCheckpointEvery = 64

// shardStateFile is the per-shard checkpoint manifest name.
const shardStateFile = "state.json"

// shardState is a shard's durable checkpoint: where its range stands and
// its failure records. The converted XML lives beside it in the conv/
// disk segment; Stored is the authoritative segment length (a resumed
// shard truncates the segment back to it, discarding any appends after
// the last checkpoint, and refolds the accumulator from what remains).
type shardState struct {
	Version int `json:"version"`
	// Start and End delimit the shard's half-open source range; a resume
	// against a different split starts the shard fresh.
	Start int `json:"start"`
	End   int `json:"end"`
	// Done counts sources processed (from Start); Stored counts documents
	// appended to the conv segment (Done minus quarantined).
	Done   int `json:"done"`
	Stored int `json:"stored"`
	// Quarantined and Degraded carry the shard's failure records so a
	// resumed build still reports them.
	Quarantined []FailureRecord `json:"quarantined,omitempty"`
	Degraded    []FailureRecord `json:"degraded,omitempty"`
	// acc is the shard's live accumulator; it is never persisted.
	acc *schema.Accumulator
}

// shardDir names shard i's working directory under the build directory.
func shardDir(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", shard))
}

// shardRange splits n sources into the given number of contiguous ranges
// and returns the i-th as a half-open interval. Contiguity is what lets
// the merge step concatenate shard segments and preserve global order.
func shardRange(n, shards, i int) (start, end int) {
	base, rem := n/shards, n%shards
	start = i*base + min(i, rem)
	end = start + base
	if i < rem {
		end++
	}
	return start, end
}

// BuildSharded runs the complete pipeline over sources as a sharded,
// disk-backed, crash-resumable build (see the package comment above for
// the dataflow). The result's repository, DTD, and conformed documents are
// byte-identical to Build + Export over the same sources.
//
// The build directory opts.Dir persists between calls: a build that failed
// or was killed mid-convert resumes from each shard's last checkpoint; a
// completed build re-run over the same directory skips all conversion work
// and re-derives the same output.
func (p *Pipeline) BuildSharded(ctx context.Context, sources []Source, opts ShardOptions) (*ShardResult, error) {
	return p.BuildShardedFrom(ctx, len(sources), func(i int) (Source, error) {
		return sources[i], nil
	}, opts)
}

// BuildShardedFrom is BuildSharded with lazy source production: at(i) is
// called once per source, by the shard that owns index i, just before
// conversion — so a corpus read from disk or generated on the fly is never
// resident as a whole, keeping RSS flat at million-document scale. at must
// be deterministic (a resumed build calls it again for re-processed
// indices) and safe for concurrent calls with distinct i.
func (p *Pipeline) BuildShardedFrom(ctx context.Context, n int, at func(i int) (Source, error), opts ShardOptions) (*ShardResult, error) {
	if n == 0 {
		return nil, fmt.Errorf("core: empty corpus")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("core: sharded build needs a working directory")
	}
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	if opts.Shards > n {
		opts.Shards = n
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	sink, err := p.openFailureSink()
	if err != nil {
		return nil, err
	}

	// Phase 1: convert, sharded. Every shard worker is independent — own
	// range, own segment, own checkpoint — so one dying (or being killed by
	// the test hook) never corrupts another.
	states := make([]*shardState, opts.Shards)
	errs := make([]error, opts.Shards)
	var wg sync.WaitGroup
	for i := 0; i < opts.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			states[i], errs[i] = p.runShardConvert(ctx, i, n, at, opts, sink)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: build cancelled: %w", err)
	}

	// Phase 2: merge the shard accumulators and derive the schema + DTD.
	// Merge order is shard order, but the accumulator merge is exactly
	// commutative, so any order mines the same schema.
	res := &ShardResult{TotalInput: n}
	res.Quarantined = sink.snapshotQuarantined()
	if err := p.checkBudget(len(res.Quarantined), res.TotalInput, sink); err != nil {
		return nil, err
	}
	sp := p.tr.StartSpan(obs.StageShardMerge)
	merged := schema.NewAccumulator(0)
	for i, st := range states {
		if err := merged.Merge(st.acc); err != nil {
			sp.End()
			return nil, fmt.Errorf("core: shard %d merge: %w", i, err)
		}
	}
	sp.End()
	if merged.Docs() == 0 {
		return nil, fmt.Errorf("core: all %d documents quarantined", n)
	}
	res.Schema = p.MineStats(merged)
	res.DTD = p.DeriveDTD(res.Schema)

	// Phase 3: map, sharded. Each shard streams its converted segment one
	// document at a time through DTD-guided mapping into a conformed
	// segment.
	costs := make([]int, opts.Shards)
	for i := 0; i < opts.Shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			costs[i], errs[i] = p.runShardMap(ctx, i, opts.Dir, res.DTD, sink)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: build cancelled: %w", err)
	}
	for _, c := range costs {
		res.TotalMapCost += c
	}
	res.Quarantined = sink.snapshotQuarantined()
	res.Degraded = sink.snapshotDegraded()
	if err := p.checkBudget(len(res.Quarantined), res.TotalInput, sink); err != nil {
		return nil, err
	}

	// Phase 4: concatenate the conformed segments, in shard order, into the
	// final disk-backed repository. Contiguous shard ranges make this a
	// pure concatenation — global input order is preserved without any
	// reordering step.
	sp = p.tr.StartSpan(obs.StageShardFinal)
	defer sp.End()
	finalDir := filepath.Join(opts.Dir, "final")
	storeOpts := opts.Store
	if storeOpts.Tracer == nil {
		storeOpts.Tracer = p.tr
	}
	final, err := repository.CreateDiskStore(finalDir, storeOpts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Shards; i++ {
		conf, err := repository.OpenDiskStore(filepath.Join(shardDir(opts.Dir, i), "conf"), repository.DiskOptions{MaxResidentDocs: -1})
		if err != nil {
			final.Close()
			return nil, err
		}
		for j := 0; j < conf.Len(); j++ {
			xml, err := conf.XML(j)
			if err == nil {
				err = final.AppendXML(conf.Name(j), xml)
			}
			if err != nil {
				conf.Close()
				final.Close()
				return nil, err
			}
		}
		conf.Close()
	}
	if err := final.Flush(); err != nil {
		final.Close()
		return nil, err
	}
	if err := repository.SaveDTDFile(finalDir, res.DTD); err != nil {
		final.Close()
		return nil, err
	}
	res.BytesOnDisk = final.BytesOnDisk()
	res.Repo = repository.NewWithStore(res.DTD, final)
	if p.tr.Enabled() {
		p.tr.Set(obs.GaugeStreamShards, int64(opts.Shards))
	}
	return res, nil
}

// runShardConvert is one shard's convert phase: process the shard's
// contiguous source range sequentially, folding statistics into the shard
// accumulator and appending converted XML to the shard's conv/ segment,
// checkpointing durably every opts.CheckpointEvery documents. An existing
// checkpoint for the same range resumes: the accumulator is refolded from
// the segment's checkpointed prefix, the segment is truncated back to it,
// and already-processed sources are skipped.
func (p *Pipeline) runShardConvert(ctx context.Context, shard, n int, at func(int) (Source, error), opts ShardOptions, sink *failureSink) (*shardState, error) {
	sp := p.tr.StartSpan(obs.ShardStage(obs.StageShardConvert, shard))
	defer sp.End()
	start, end := shardRange(n, opts.Shards, shard)
	dir := shardDir(opts.Dir, shard)
	convDir := filepath.Join(dir, "conv")

	st, conv, err := p.openShardState(shard, dir, convDir, start, end, sink)
	if err != nil {
		return nil, err
	}
	defer conv.Close()

	checkpoint := func() error {
		if err := conv.Flush(); err != nil {
			return fmt.Errorf("core: shard %d flush: %w", shard, err)
		}
		return writeShardState(dir, st)
	}
	sinceCkpt := 0
	for i := st.Done; i < end-start; i++ {
		if err := ctx.Err(); err != nil {
			// Cancelled: persist progress so a later build resumes here.
			if cerr := checkpoint(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("core: build cancelled: %w", err)
		}
		src, err := at(start + i)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d source %d: %w", shard, start+i, err)
		}
		d, degraded, failed := p.convertGuarded(src.Name, src.HTML)
		if failed != nil {
			sink.quarantine(*failed, src.HTML)
			st.Quarantined = append(st.Quarantined, *failed)
		} else {
			if degraded != nil {
				sink.degrade(*degraded)
				st.Degraded = append(st.Degraded, *degraded)
			}
			st.acc.Add(start+st.Stored, p.ExtractPaths(d))
			if err := conv.Append(src.Name, d.XML); err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", shard, err)
			}
			st.Stored++
			// The converted tree is folded and durably appended; drop it.
		}
		st.Done = i + 1
		if opts.kill != nil && opts.kill(shard, st.Done) {
			// Simulated crash: stop with whatever the last checkpoint (and
			// any index lines the OS already has) persisted.
			return nil, fmt.Errorf("core: shard %d: %w", shard, errShardKilled)
		}
		if sinceCkpt++; sinceCkpt >= opts.CheckpointEvery {
			sinceCkpt = 0
			if err := checkpoint(); err != nil {
				return nil, err
			}
			if p.tr.Enabled() {
				p.tr.Add(obs.CtrCheckpoints, 1)
			}
		}
	}
	if err := checkpoint(); err != nil {
		return nil, err
	}
	return st, nil
}

// openShardState resumes shard state from dir when a checkpoint for the
// same source range exists (refolding the accumulator from the checkpointed
// documents, truncating the conv segment back to them and re-registering
// the failure records), and starts fresh when there is none or it covers a
// different range (a rerun with another shard count). A checkpoint that
// cannot be read, decoded or refolded, or has an unknown version, is an
// error: the conv segment is left untouched rather than silently rebuilt.
func (p *Pipeline) openShardState(shard int, dir, convDir string, start, end int, sink *failureSink) (*shardState, *repository.DiskStore, error) {
	st, err := readShardState(dir)
	if err != nil {
		return nil, nil, err
	}
	if st == nil || st.Start != start || st.End != end {
		conv, err := repository.CreateDiskStore(convDir, repository.DiskOptions{MaxResidentDocs: -1, Tracer: p.tr})
		if err != nil {
			return nil, nil, err
		}
		return &shardState{Version: shardStateVersion, Start: start, End: end, acc: schema.NewAccumulator(0)}, conv, nil
	}
	sp := p.tr.StartSpan(obs.StageShardResume)
	defer sp.End()
	conv, err := repository.OpenDiskStore(convDir, repository.DiskOptions{MaxResidentDocs: -1, Tracer: p.tr})
	if err != nil {
		return nil, nil, err
	}
	if conv.Len() < st.Stored {
		// The segment lost appends the state already covers — the
		// checkpoint protocol flushes the segment before the state, so
		// this means external tampering, not a crash.
		conv.Close()
		return nil, nil, fmt.Errorf("core: shard %d resume: segment holds %d documents, checkpoint expects %d", shard, conv.Len(), st.Stored)
	}
	// Refold before truncating, so a document that cannot be read back
	// fails the resume with the segment still as the crash left it.
	st.Version, st.acc = shardStateVersion, schema.NewAccumulator(0)
	for j := 0; j < st.Stored; j++ {
		root, err := conv.Doc(j)
		if err != nil {
			conv.Close()
			return nil, nil, fmt.Errorf("core: shard %d resume: document %d (%s): %w", shard, j, conv.Name(j), err)
		}
		st.acc.Add(start+j, p.ExtractPaths(&Document{Source: conv.Name(j), XML: root}))
	}
	if err := conv.TruncateDocs(st.Stored); err != nil {
		conv.Close()
		return nil, nil, err
	}
	sink.restoreQuarantined(st.Quarantined)
	for _, rec := range st.Degraded {
		sink.degrade(rec)
	}
	if p.tr.Enabled() {
		p.tr.Add(obs.CtrShardsResumed, 1)
		p.tr.Add(obs.CtrShardRefolded, int64(st.Stored))
	}
	return st, conv, nil
}

// readShardState loads the shard checkpoint in dir; (nil, nil) means there
// is none.
func readShardState(dir string) (*shardState, error) {
	path := filepath.Join(dir, shardStateFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: shard resume: %w", err)
	}
	var st shardState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("core: shard resume: %s: %w", path, err)
	}
	if st.Version < 1 || st.Version > shardStateVersion {
		return nil, fmt.Errorf("core: shard resume: %s: state version %d not supported (want 1..%d)", path, st.Version, shardStateVersion)
	}
	return &st, nil
}

// writeShardState persists a shard checkpoint atomically (tmp + rename).
func writeShardState(dir string, st *shardState) error {
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("core: shard checkpoint: %w", err)
	}
	if err := repository.WriteFileAtomic(filepath.Join(dir, shardStateFile), data); err != nil {
		return fmt.Errorf("core: shard checkpoint: %w", err)
	}
	return nil
}

// runShardMap is one shard's map phase: stream the conv/ segment one
// document at a time through DTD-guided conformance mapping into a fresh
// conf/ segment. Map-stage failures quarantine the document (it is absent
// from the segment); a degraded (identity-mapped) document that still
// violates the DTD is dropped, exactly as Repository.Export drops it in
// the single-process build. Returns the total mapping edit cost.
func (p *Pipeline) runShardMap(ctx context.Context, shard int, dir string, dt *dtd.DTD, sink *failureSink) (int, error) {
	sp := p.tr.StartSpan(obs.ShardStage(obs.StageShardMap, shard))
	defer sp.End()
	sdir := shardDir(dir, shard)
	conv, err := repository.OpenDiskStore(filepath.Join(sdir, "conv"), repository.DiskOptions{MaxResidentDocs: -1})
	if err != nil {
		return 0, err
	}
	defer conv.Close()
	conf, err := repository.CreateDiskStore(filepath.Join(sdir, "conf"), repository.DiskOptions{MaxResidentDocs: -1, Tracer: p.tr})
	if err != nil {
		return 0, err
	}
	defer conf.Close()

	cost := 0
	for i := 0; i < conv.Len(); i++ {
		if err := ctx.Err(); err != nil {
			return cost, fmt.Errorf("core: build cancelled: %w", err)
		}
		root, err := conv.Doc(i)
		if err != nil {
			return cost, fmt.Errorf("core: shard %d map: %w", shard, err)
		}
		d := &Document{Source: conv.Name(i), XML: root}
		out, est, degraded, failed := p.conformGuarded(d, dt)
		if failed != nil {
			sink.quarantine(*failed, "")
			continue
		}
		if degraded != nil {
			sink.degrade(*degraded)
			if errs := dt.Validate(out); len(errs) > 0 {
				// Identity-mapped over the cost ceiling and still
				// non-conforming: dropped, as in Repository.Export.
				continue
			}
		}
		cost += est.Cost()
		if err := conf.AppendXML(d.Source, []byte(xmlout.Marshal(out))); err != nil {
			return cost, fmt.Errorf("core: shard %d map: %w", shard, err)
		}
	}
	if err := conf.Flush(); err != nil {
		return cost, fmt.Errorf("core: shard %d map: %w", shard, err)
	}
	return cost, nil
}
