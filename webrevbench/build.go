package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/core"
	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/htmlparse"
	"webrev/internal/mapping"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/schema"
	"webrev/internal/tidy"
	"webrev/internal/xmlout"
)

// buildShards is the build-disk shard count: one shard per core of the
// two-core reference machine.
const buildShards = 2

// builtRepo is one untraced build's result and the facts its checks need.
type builtRepo struct {
	res  *core.ShardResult
	wall time.Duration
	// digest covers every stored document's name and XML bytes.
	digest string
	dtd    string
}

// runBuild is the build-disk workload: repeated two-shard disk-backed
// builds of a pre-generated corpus read lazily from disk.
func runBuild(cfg *config, out *outcome) error {
	sz := cfg.sizes
	n := sz.BuildDocs
	corpusDir := filepath.Join(cfg.work, "corpus")
	if err := writeCorpus(corpusDir, n, cfg.seed, concept.ResumeSet()); err != nil {
		return err
	}

	// core.New takes well under a millisecond, so it is repeated many
	// times for a steady median.
	var setups []float64
	var p *core.Pipeline
	for r := 0; r < 40*sz.SetupRepeats; r++ {
		t0 := time.Now()
		var err error
		if p, err = newPipeline(nil); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		return traceBuild(cfg, p, corpusDir, out)
	}

	resetPeakRSS(true)
	dir := filepath.Join(cfg.work, "build")
	var peaks peakTracker
	var rates []float64
	var lats [][]float64
	var steals []float64
	var last *builtRepo
	deadline := time.Now().Add(cfg.seconds)
	for len(rates) == 0 || time.Now().Before(deadline) {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		peaks.begin()
		var lat []float64
		s0 := stealTicks()
		b, err := buildOnce(p, corpusDir, n, dir, sz.CheckpointEvery, &lat)
		if err != nil {
			return err
		}
		steals = append(steals, stealShare(stealTicks()-s0, b.wall))
		if err := peaks.end(); err != nil {
			return err
		}
		rates = append(rates, float64(n)/b.wall.Seconds())
		lats = append(lats, lat)
		out.attempted += int64(n)
		out.failed += int64(len(b.res.Quarantined))
		if last != nil {
			out.check(b.digest == last.digest, "build %d differs from the build before it", len(rates))
			closeRepo(last)
		}
		last = b
	}
	defer closeRepo(last)
	if err := checkBuild(last, n, cfg.wrongAnswer, out); err != nil {
		return err
	}

	// The time metrics use the builds that ran with the least host steal.
	kept := quiet(steals)
	var docLat []float64
	for _, i := range kept {
		docLat = append(docLat, lats[i]...)
	}
	out.values["setup_s"] = median(setups)
	out.values["throughput_per_s"] = median(pick(rates, kept))
	out.values["p50_ms"] = median(docLat)
	out.values["tail_ms"] = tail(docLat)
	out.values["peak_rss_mb"] = peaks.median()
	out.values["disk_bytes_per_doc"] = float64(last.res.BytesOnDisk) / float64(last.res.Repo.Len())
	out.values["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(os.Stderr, "build-disk: %d builds of %d docs, %d with the least host steal: %.0f docs/s median (all builds %.0f)\n",
		len(rates), n, len(kept), out.values["throughput_per_s"], median(rates))
	return nil
}

// buildOnce runs one sharded build into dir, which must not exist. It appends to docLat
// each document's convert-phase latency in milliseconds: the interval
// between its shard's consecutive source reads, which covers conversion,
// extraction, the fold, the store append and any checkpoint that document
// triggered.
func buildOnce(p *core.Pipeline, corpusDir string, n int, dir string, ckpt int, docLat *[]float64) (*builtRepo, error) {
	read := corpusSource(corpusDir)
	stamps := make([]time.Time, n)
	at := func(i int) (core.Source, error) {
		stamps[i] = time.Now()
		return read(i)
	}
	t0 := time.Now()
	res, err := p.BuildShardedFrom(context.Background(), n, at, core.ShardOptions{
		Shards:          buildShards,
		Dir:             dir,
		CheckpointEvery: ckpt,
	})
	if err != nil {
		return nil, err
	}
	b := &builtRepo{res: res, wall: time.Since(t0), dtd: res.DTD.Render()}
	for s := 0; s < buildShards; s++ {
		start, end := shardRange(n, buildShards, s)
		for i := start + 1; i < end; i++ {
			*docLat = append(*docLat, ms(stamps[i].Sub(stamps[i-1])))
		}
	}
	if b.digest, err = storeDigest(res.Repo.Store()); err != nil {
		closeRepo(b)
		return nil, err
	}
	return b, nil
}

func closeRepo(b *builtRepo) {
	if b != nil {
		b.res.Repo.Store().Close()
	}
}

// storeDigest hashes every document of a store in order.
func storeDigest(s repository.Store) (string, error) {
	d := newDigest()
	for i := 0; i < s.Len(); i++ {
		x, err := s.XML(i)
		if err != nil {
			return "", err
		}
		d.add(s.Name(i), x)
	}
	return d.sum(), nil
}

// checkBuild verifies a build: stored = inputs − quarantined, and every
// stored document validates against the derived DTD.
func checkBuild(b *builtRepo, n int, wrong bool, out *outcome) error {
	want := n - len(b.res.Quarantined)
	if wrong {
		want++
	}
	st := b.res.Repo.Store()
	out.check(st.Len() == want, "stored %d documents, want %d inputs − quarantined", st.Len(), want)
	for i := 0; i < st.Len(); i++ {
		doc, err := st.Doc(i)
		if err != nil {
			return err
		}
		if errs := b.res.DTD.Validate(doc); len(errs) > 0 {
			out.check(false, "stored document %s violates the DTD: %v", st.Name(i), errs[0])
		}
	}
	return nil
}

// traceBuild alternates untraced builds with traced replays for the run's
// window and reports the build's per-layer metrics.
func traceBuild(cfg *config, p *core.Pipeline, corpusDir string, out *outcome) error {
	n := cfg.sizes.BuildDocs
	// The untraced builds run on a pipeline of their own whose tracer keeps
	// only the build's per-shard phase walls, from which their worker time
	// is taken.
	phases := &phaseTracer{}
	pt, err := newPipeline(phases)
	if err != nil {
		return err
	}
	rec := newRecorder()
	conv := newConverter(p)
	var plainWalls, tracedWalls, skews []float64
	var workerNs float64
	var rt rtSample
	var identified, tokens, editCost, xmlBytes, checkpoints, ckptBytes, stored float64
	deadline := time.Now().Add(cfg.seconds)
	for len(plainWalls) == 0 || time.Now().Before(deadline) {
		var lat []float64
		dir := filepath.Join(cfg.work, "build")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		phases.reset()
		before := readRuntime()
		b, err := buildOnce(pt, corpusDir, n, dir, cfg.sizes.CheckpointEvery, &lat)
		if err != nil {
			return err
		}
		rt = rt.plus(before, readRuntime())
		plainWalls = append(plainWalls, b.wall.Seconds())
		worker, skew, err := phases.workerTime(b.wall)
		if err != nil {
			closeRepo(b)
			return err
		}
		workerNs += worker
		skews = append(skews, skew)
		out.attempted += int64(n)
		out.failed += int64(len(b.res.Quarantined))

		rb := &replayBuild{p: p, conv: conv, rec: rec, n: n, ckpt: cfg.sizes.CheckpointEvery,
			corpusDir: corpusDir, dir: filepath.Join(cfg.work, "replay"), trace: int64(len(plainWalls) - 1)}
		if err := rb.run(); err != nil {
			closeRepo(b)
			return err
		}
		closeRepo(b)
		rec.fold()
		want := b.digest
		if cfg.wrongAnswer {
			want = "wrong"
		}
		out.check(rb.dtd == b.dtd, "traced replay derived a different DTD")
		out.check(rb.digest == want, "traced replay stored different documents")
		tracedWalls = append(tracedWalls, rb.wall.Seconds())
		identified += float64(rb.identified)
		tokens += float64(rb.tokens)
		editCost += float64(rb.editCost)
		xmlBytes += float64(rb.xmlBytes)
		checkpoints += float64(rb.checkpoints)
		ckptBytes += float64(rb.ckptBytes)
		stored += float64(rb.stored)
	}
	reps := float64(len(plainWalls))
	docs := reps * float64(n)
	t := rec.layerTotals()
	perDoc := func(names ...string) float64 { return sumNs(t, names...) / docs }
	perRep := func(name string) float64 { return sumNs(t, name) / reps / 1e6 }
	v := out.values
	v["source.ns_per_doc"] = perDoc("source")
	v["htmlparse.ns_per_doc"] = perDoc("htmlparse")
	v["tidy.ns_per_doc"] = perDoc("tidy")
	v["convert.ns_per_doc"] = perDoc("convert")
	v["convert.identified_ratio"] = ratio(identified, tokens)
	v["schema.extract_ns_per_doc"] = perDoc("schema.extract")
	v["schema.fold_ns_per_doc"] = perDoc("schema.fold")
	v["schema.merge_ms"] = perRep("schema.merge")
	v["schema.mine_ms"] = perRep("schema.mine")
	v["schema.checkpoint_ms"] = perRep("schema.checkpoint")
	v["schema.checkpoint_bytes"] = ratio(ckptBytes, checkpoints)
	v["core.checkpoints"] = checkpoints / reps
	v["dtd.derive_ms"] = perRep("dtd.derive")
	v["mapping.conform_ns_per_doc"] = perDoc("mapping.conform")
	v["mapping.edit_cost_per_doc"] = ratio(editCost, stored)
	v["xmlout.marshal_ns_per_doc"] = perDoc("xmlout.marshal")
	v["xmlout.bytes_per_doc"] = ratio(xmlBytes, stored)
	v["repository.append_ns_per_doc"] = perDoc("repository.append")
	v["repository.flush_ms"] = perRep("repository.flush")
	v["repository.read_ns_per_doc"] = perDoc("repository.read")
	v["repository.decode_ns_per_doc"] = perDoc("repository.decode")
	v["repository.open_ms"] = perRep("repository.open")
	var attributed float64
	for name, lt := range t {
		if name != "doc" {
			attributed += lt.ns
		}
	}
	v["core.unattributed_share"] = 1 - ratio(attributed, workerNs)
	v["core.shard_skew"] = median(skews)
	runtimeMetrics(out, rt, docs)
	v["trace.overhead_ratio"] = median(tracedWalls) / median(plainWalls)
	fmt.Fprintf(os.Stderr, "build-disk trace: %d replays, unattributed %.3f\n", len(plainWalls), v["core.unattributed_share"])
	return rec.write(cfg.spansOut)
}

// replayBuild re-runs the sharded build's dataflow (convert → extract →
// checkpoint → merge → mine → DTD → map → final append) by calling each
// layer's exported functions, with a span around every call. It must store
// the same bytes the untraced build stores.
type replayBuild struct {
	p         *core.Pipeline
	conv      *convert.Converter
	rec       *recorder
	n, ckpt   int
	corpusDir string
	dir       string
	trace     int64

	dtd, digest         string
	wall                time.Duration
	identified, tokens  int
	editCost, stored    int
	xmlBytes, ckptBytes int64
	checkpoints         int
}

// shardConv is one shard's convert-phase output.
type shardConv struct {
	acc                []byte // last checkpoint's accumulator encoding
	identified, tokens int
	checkpoints        int
	ckptBytes          int64
}

func (rb *replayBuild) shardDir(s int) string {
	return filepath.Join(rb.dir, fmt.Sprintf("shard-%03d", s))
}

func (rb *replayBuild) run() error {
	if err := os.RemoveAll(rb.dir); err != nil {
		return err
	}
	t0 := time.Now()
	convs := make([]*shardConv, buildShards)
	if err := parallel(buildShards, func(s int) (err error) {
		convs[s], err = rb.convertShard(s, rb.rec.log())
		return err
	}); err != nil {
		return err
	}

	lg := rb.rec.log()
	merged := schema.NewAccumulator(0)
	var err error
	lg.timed("schema.merge", -1, rb.trace, func() {
		for _, c := range convs {
			acc := &schema.Accumulator{}
			if err = json.Unmarshal(c.acc, acc); err != nil {
				return
			}
			if err = merged.Merge(acc); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	var sch *schema.Schema
	lg.timed("schema.mine", -1, rb.trace, func() { sch = rb.p.MineStats(merged) })
	var dt *dtd.DTD
	lg.timed("dtd.derive", -1, rb.trace, func() { dt = rb.p.DeriveDTD(sch) })

	costs := make([]int, buildShards)
	stored := make([]int, buildShards)
	bytes := make([]int64, buildShards)
	if err := parallel(buildShards, func(s int) (err error) {
		costs[s], stored[s], bytes[s], err = rb.mapShard(s, dt, rb.rec.log())
		return err
	}); err != nil {
		return err
	}

	if err := rb.finalAppend(dt, lg); err != nil {
		return err
	}
	rb.wall = time.Since(t0)
	rb.dtd = dt.Render()

	for s := 0; s < buildShards; s++ {
		rb.identified += convs[s].identified
		rb.tokens += convs[s].tokens
		rb.checkpoints += convs[s].checkpoints
		rb.ckptBytes += convs[s].ckptBytes
		rb.editCost += costs[s]
		rb.stored += stored[s]
		rb.xmlBytes += bytes[s]
	}
	return nil
}

// parallel runs fn(0..n-1) on n goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// convertShard replays one shard's convert phase.
func (rb *replayBuild) convertShard(s int, lg *spanLog) (*shardConv, error) {
	start, end := shardRange(rb.n, buildShards, s)
	dir := rb.shardDir(s)
	var store *repository.DiskStore
	var err error
	lg.timed("repository.open", -1, rb.trace, func() {
		store, err = repository.CreateDiskStore(filepath.Join(dir, "conv"), repository.DiskOptions{MaxResidentDocs: -1})
	})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	out := &shardConv{}
	acc := schema.NewAccumulator(0)
	checkpoint := func(trace int64) error {
		var err error
		lg.timed("repository.flush", -1, trace, func() { err = store.Flush() })
		if err != nil {
			return err
		}
		lg.timed("schema.checkpoint", -1, trace, func() {
			if out.acc, err = json.Marshal(acc); err != nil {
				return
			}
			tmp := filepath.Join(dir, "state.json.tmp")
			if err = os.WriteFile(tmp, out.acc, 0o644); err == nil {
				err = os.Rename(tmp, filepath.Join(dir, "state.json"))
			}
		})
		out.checkpoints++
		out.ckptBytes += int64(len(out.acc))
		return err
	}
	read := corpusSource(rb.corpusDir)
	since := 0
	for i := start; i < end; i++ {
		tr := int64(i)
		root := lg.start("doc", -1, tr)
		var src core.Source
		lg.timed("source", root, tr, func() { src, err = read(i) })
		if err != nil {
			return nil, err
		}
		xml, st := convertTraced(lg, root, tr, rb.conv, src.HTML)
		out.identified += st.IdentifiedTokens
		out.tokens += st.Tokens
		var dp *schema.DocPaths
		lg.timed("schema.extract", root, tr, func() { dp = schema.Extract(xml) })
		lg.timed("schema.fold", root, tr, func() { acc.Add(i, dp) })
		var text string
		lg.timed("xmlout.marshal", root, tr, func() { text = xmlout.Marshal(xml) })
		lg.timed("repository.append", root, tr, func() { err = store.AppendXML(src.Name, []byte(text)) })
		if err != nil {
			return nil, err
		}
		if since++; since >= rb.ckpt {
			since = 0
			if err := checkpoint(tr); err != nil {
				return nil, err
			}
		}
		lg.end(root)
	}
	if err := checkpoint(int64(end)); err != nil {
		return nil, err
	}
	return out, nil
}

// convertTraced is Converter.Convert split at its layer boundaries: parse,
// tidy, then the restructuring rules, each under its own span.
func convertTraced(lg *spanLog, parent int, tr int64, conv *convert.Converter, html string) (*dom.Node, convert.Stats) {
	var doc *dom.Node
	var truncated bool
	lg.timed("htmlparse", parent, tr, func() { doc, truncated = htmlparse.ParseLimited(html, htmlparse.Limits{}) })
	lg.timed("tidy", parent, tr, func() { tidy.Clean(doc) })
	var x *dom.Node
	var st convert.Stats
	lg.timed("convert", parent, tr, func() {
		body := doc.FindElement("body")
		if body == nil {
			body = doc
		}
		x, st = conv.ConvertTree(body)
	})
	st.Truncated = st.Truncated || truncated
	return x, st
}

// mapShard replays one shard's map phase: read and decode each converted
// document, conform it to the DTD, and append the conformed XML. It
// returns the edit cost, the stored count and the conformed bytes.
func (rb *replayBuild) mapShard(s int, dt *dtd.DTD, lg *spanLog) (cost, stored int, bytes int64, err error) {
	dir := rb.shardDir(s)
	var conv, conf *repository.DiskStore
	lg.timed("repository.open", -1, rb.trace, func() {
		if conv, err = repository.OpenDiskStore(filepath.Join(dir, "conv"), repository.DiskOptions{MaxResidentDocs: -1}); err != nil {
			return
		}
		conf, err = repository.CreateDiskStore(filepath.Join(dir, "conf"), repository.DiskOptions{MaxResidentDocs: -1})
	})
	if err != nil {
		if conv != nil {
			conv.Close()
		}
		return 0, 0, 0, err
	}
	defer conv.Close()
	defer conf.Close()
	start, _ := shardRange(rb.n, buildShards, s)
	for j := 0; j < conv.Len(); j++ {
		tr := int64(start + j)
		root := lg.start("doc", -1, tr)
		var raw []byte
		lg.timed("repository.read", root, tr, func() { raw, err = conv.XML(j) })
		if err != nil {
			return 0, 0, 0, err
		}
		var x *dom.Node
		lg.timed("repository.decode", root, tr, func() { x, err = xmlout.UnmarshalElement(string(raw)) })
		if err != nil {
			return 0, 0, 0, err
		}
		var c *dom.Node
		var est mapping.EditStats
		lg.timed("mapping.conform", root, tr, func() { c, est = mapping.Conform(x, dt) })
		var text string
		lg.timed("xmlout.marshal", root, tr, func() { text = xmlout.Marshal(c) })
		lg.timed("repository.append", root, tr, func() { err = conf.AppendXML(conv.Name(j), []byte(text)) })
		if err != nil {
			return 0, 0, 0, err
		}
		lg.end(root)
		cost += est.Cost()
		stored++
		bytes += int64(len(text))
	}
	lg.timed("repository.flush", -1, rb.trace, func() { err = conf.Flush() })
	return cost, stored, bytes, err
}

// finalAppend replays phase 4: concatenate the conformed shard segments
// into the final store, save the DTD beside it, and digest the result.
func (rb *replayBuild) finalAppend(dt *dtd.DTD, lg *spanLog) (err error) {
	finalDir := filepath.Join(rb.dir, "final")
	var final *repository.DiskStore
	lg.timed("repository.open", -1, rb.trace, func() { final, err = repository.CreateDiskStore(finalDir, repository.DiskOptions{}) })
	if err != nil {
		return err
	}
	defer final.Close()
	for s := 0; s < buildShards; s++ {
		var conf *repository.DiskStore
		lg.timed("repository.open", -1, rb.trace, func() {
			conf, err = repository.OpenDiskStore(filepath.Join(rb.shardDir(s), "conf"), repository.DiskOptions{MaxResidentDocs: -1})
		})
		if err != nil {
			return err
		}
		start, _ := shardRange(rb.n, buildShards, s)
		for j := 0; j < conf.Len() && err == nil; j++ {
			tr := int64(start + j)
			var raw []byte
			lg.timed("repository.read", -1, tr, func() { raw, err = conf.XML(j) })
			if err == nil {
				lg.timed("repository.append", -1, tr, func() { err = final.AppendXML(conf.Name(j), raw) })
			}
		}
		conf.Close()
		if err != nil {
			return err
		}
	}
	lg.timed("repository.flush", -1, rb.trace, func() {
		if err = final.Flush(); err == nil {
			err = repository.SaveDTDFile(finalDir, dt)
		}
	})
	if err != nil {
		return err
	}
	rb.digest, err = storeDigest(final)
	return err
}

// phaseTracer is the tracer of the traced run's untraced builds. It keeps
// the walls of the sharded build's own per-shard phase spans (convert and
// map) and ignores every other event. Enabled reports false, so the build
// does none of the work it does only to feed metrics, as with no tracer.
type phaseTracer struct {
	mu    sync.Mutex
	walls map[string]time.Duration
}

type phaseSpan struct {
	t     *phaseTracer
	name  string
	start time.Time
}

func (s *phaseSpan) End() {
	d := time.Since(s.start)
	s.t.mu.Lock()
	s.t.walls[s.name] += d
	s.t.mu.Unlock()
}

type nopSpan struct{}

func (nopSpan) End() {}

func (t *phaseTracer) StartSpan(name string) obs.Span {
	if strings.HasPrefix(name, obs.StageShardConvert+".") || strings.HasPrefix(name, obs.StageShardMap+".") {
		return &phaseSpan{t: t, name: name, start: time.Now()}
	}
	return nopSpan{}
}

func (*phaseTracer) Observe(string, time.Duration) {}
func (*phaseTracer) Add(string, int64)             {}
func (*phaseTracer) Set(string, int64)             {}
func (*phaseTracer) Enabled() bool                 { return false }

func (t *phaseTracer) reset() {
	t.mu.Lock()
	t.walls = make(map[string]time.Duration)
	t.mu.Unlock()
}

// workerTime returns a build's worker time in nanoseconds, given its wall:
// every shard's convert and map walls, plus the serial phases between and
// after them (the wall the two parallel phases leave). It also returns the
// shard skew: the slowest shard's convert + map wall over the mean.
func (t *phaseTracer) workerTime(wall time.Duration) (worker, skew float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum, slowest float64
	var convertPhase, mapPhase time.Duration
	for s := 0; s < buildShards; s++ {
		c, okc := t.walls[obs.ShardStage(obs.StageShardConvert, s)]
		m, okm := t.walls[obs.ShardStage(obs.StageShardMap, s)]
		if !okc || !okm {
			return 0, 0, fmt.Errorf("build recorded no convert or map span for shard %d", s)
		}
		convertPhase, mapPhase = max(convertPhase, c), max(mapPhase, m)
		sum += float64(c + m)
		slowest = max(slowest, float64(c+m))
	}
	return sum + float64(wall-convertPhase-mapPhase), slowest / (sum / buildShards), nil
}
