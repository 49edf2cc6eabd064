package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webrev/internal/concept"
	"webrev/internal/convert"
	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/faultinject"
	"webrev/internal/mapping"
	"webrev/internal/schema"
	"webrev/internal/watch"
	"webrev/internal/xmlout"
)

// site is the recrawl-delta input: a generated resume site served on a
// loopback port, whose pages each cycle are the original HTML with a
// seeded template mutation applied to about MutateRate of them.
type site struct {
	s         *crawler.Site
	srv       *httptest.Server
	originals map[string]string // resume page path → original HTML
	paths     []string          // resume page paths, sorted
	seed      int64
	rate      float64
	// handlerNs and requests time the site's own handler.
	handlerNs, requests atomic.Int64
}

func newSite(cfg *config) *site {
	g := generator(cfg.seed, concept.ResumeSet())
	resumes := g.Corpus(cfg.sizes.SitePages)
	st := &site{s: crawler.BuildSite(resumes, []string{g.Distractor(), g.Distractor()}),
		originals: make(map[string]string), seed: cfg.seed, rate: cfg.sizes.MutateRate}
	for _, p := range st.s.Paths() {
		if strings.HasPrefix(p, "/resumes/") {
			html, _ := st.s.Page(p)
			st.originals[p] = html
			st.paths = append(st.paths, p)
		}
	}
	h := st.s.Handler()
	st.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		st.handlerNs.Add(int64(time.Since(t)))
		st.requests.Add(1)
	}))
	return st
}

// mutate rewrites the site for cycle c: every page is its original HTML,
// with cycle c's seeded template mutation applied where it selects one.
func (st *site) mutate(c int) {
	tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: st.seed*1000003 + int64(c), Rate: st.rate})
	for _, p := range st.paths {
		out, _ := tm.Mutate(p, st.originals[p])
		st.s.SetPage(p, out)
	}
}

// crawlerFor returns a revalidating crawler with at most one worker and
// one keep-alive connection per CPU.
func (st *site) crawlerFor(rt http.RoundTripper) *crawler.Crawler {
	workers := runtime.NumCPU()
	if rt == nil {
		rt = &http.Transport{MaxIdleConnsPerHost: workers}
	}
	return &crawler.Crawler{
		Client:  &http.Client{Transport: rt},
		Workers: workers,
		Filter:  crawler.ResumeFilter(3),
		Fetch:   crawler.FetchPolicy{Revalidate: true, MaxRetries: -1},
	}
}

func closeClient(c *crawler.Crawler) { c.Client.CloseIdleConnections() }

// newWatcher starts a watcher with its own state directory.
func (st *site) newWatcher(p *core.Pipeline, dir string) (*watch.Watcher, *crawler.Crawler, error) {
	c := st.crawlerFor(nil)
	w, err := watch.New(watch.Options{Pipeline: p, Crawler: c, Seed: st.srv.URL + "/", StateDir: dir})
	return w, c, err
}

// countCycle adds a cycle's crawl and conversion outcomes to out.
func countCycle(res *watch.Result, out *outcome) {
	rep := res.Report
	out.attempted += int64(rep.Fetched + rep.NotModified + rep.Failed)
	out.failed += int64(rep.Failed + res.Drift.Docs.Failed)
}

// runRecrawl is the recrawl-delta workload: a watcher with a state
// directory recrawls the site after each seeded template mutation.
func runRecrawl(cfg *config, out *outcome) error {
	st := newSite(cfg)
	defer st.srv.Close()
	p, err := newPipeline(nil)
	if err != nil {
		return err
	}
	resetPeakRSS(true)
	if cfg.trace {
		return traceRecrawl(cfg, st, p, out)
	}

	// Set-up: the cold first cycle, from an empty state directory and a
	// collected heap.
	var setups []float64
	var w *watch.Watcher
	var c *crawler.Crawler
	stateDir := ""
	for r := 0; r < cfg.sizes.SetupRepeats; r++ {
		if c != nil {
			closeClient(c)
		}
		stateDir = filepath.Join(cfg.work, fmt.Sprintf("state-%d", r))
		if w, c, err = st.newWatcher(p, stateDir); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		res, err := w.Cycle(context.Background())
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		countCycle(res, out)
	}
	defer closeClient(c)

	// Every timed cycle starts from a collected heap, so the garbage the
	// benchmark makes between cycles (the site's mutation, the cold-build
	// checks) is not collected on a cycle's time.
	var walls []float64
	var steals []float64
	var peaks peakTracker
	deadline := time.Now().Add(cfg.seconds)
	for cycle := 1; len(walls) == 0 || time.Now().Before(deadline); cycle++ {
		st.mutate(cycle)
		runtime.GC()
		peaks.begin()
		s0 := stealTicks()
		t0 := time.Now()
		res, err := w.Cycle(context.Background())
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		walls = append(walls, ms(wall))
		steals = append(steals, stealShare(stealTicks()-s0, wall))
		if err := peaks.end(); err != nil {
			return err
		}
		countCycle(res, out)
		if cycle == 1 || cycle%cfg.sizes.ColdCheckEvery == 0 {
			if err := checkCold(p, st, w, res.Repo, cfg.wrongAnswer, out); err != nil {
				return err
			}
		}
	}
	disk, err := dirBytes(stateDir)
	if err != nil {
		return err
	}
	kept := pick(walls, quiet(steals))
	out.values["setup_s"] = median(setups)
	out.values["throughput_per_s"] = float64(w.Docs()) / (median(kept) / 1000)
	out.values["p50_ms"] = median(kept)
	out.values["tail_ms"] = tail(kept)
	out.values["peak_rss_mb"] = peaks.median()
	out.values["disk_bytes_per_doc"] = float64(disk) / float64(w.Docs())
	out.values["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(os.Stderr, "recrawl-delta: %d delta cycles over %d live documents, %d with the least host steal: median %.1f ms (all cycles %.1f ms); cold cycle %.3f s\n",
		len(walls), w.Docs(), len(kept), median(kept), median(walls), median(setups))
	return nil
}

// checkCold requires the cycle's repository to equal a cold batch build of
// the live pages: the same DTD and byte-identical conformed documents.
func checkCold(p *core.Pipeline, st *site, w *watch.Watcher, got *core.Repository, wrong bool, out *outcome) error {
	var sources []core.Source
	for _, u := range w.DocURLs() {
		html, ok := st.s.Page(strings.TrimPrefix(u, st.srv.URL))
		if !ok {
			return fmt.Errorf("live document %s is not on the site", u)
		}
		sources = append(sources, core.Source{Name: u, HTML: html})
	}
	cold, err := p.Build(sources)
	if err != nil {
		return err
	}
	want := repoDigest(cold)
	if wrong {
		want = "wrong"
	}
	out.check(cold.DTD.Render() == got.DTD.Render(), "incremental DTD differs from a cold build's")
	out.check(repoDigest(got) == want, "incremental documents differ from a cold build's")
	return nil
}

// repoDigest hashes a repository's conformed documents in order.
func repoDigest(r *core.Repository) string {
	d := newDigest()
	for i, c := range r.Conformed {
		d.add(r.Docs[i].Source, []byte(xmlout.Marshal(c)))
	}
	return d.sum()
}

// traceRecrawl runs watcher cycles untraced and replays each through the
// crawler, conversion, schema, DTD and mapping functions, checking that
// the replay derives the same DTD and documents.
func traceRecrawl(cfg *config, st *site, p *core.Pipeline, out *outcome) error {
	w, c, err := st.newWatcher(p, filepath.Join(cfg.work, "state"))
	if err != nil {
		return err
	}
	defer closeClient(c)
	rec := newRecorder()
	rp := &replayWatch{p: p, conv: newConverter(p), rec: rec, lg: rec.log(), seed: st.srv.URL + "/",
		crawl: crawler.NewCrawlState(), acc: schema.NewDeltaAccumulator(0), docs: make(map[string]*replayDoc)}
	tt := &timedTransport{next: &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU()}, lg: rec.log()}
	rp.c = st.crawlerFor(tt)
	defer closeClient(rp.c)

	var plain, traced, self []float64
	var rt rtSample
	h0, r0 := int64(0), int64(0)
	deadline := time.Now().Add(cfg.seconds)
	for cycle := 0; cycle <= 1 || time.Now().Before(deadline); cycle++ {
		if cycle == 1 {
			// Delta cycles start here: drop the cold cycle from the layer
			// totals and counters.
			rec.reset()
			rp.reset()
			h0, r0 = st.handlerNs.Load(), st.requests.Load()
		}
		if cycle > 0 {
			st.mutate(cycle)
		}
		runtime.GC()
		before := readRuntime()
		t0 := time.Now()
		res, err := w.Cycle(context.Background())
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		after := readRuntime()
		countCycle(res, out)
		if cycle > 0 {
			rt = rt.plus(before, after)
		}
		tt.trace.Store(int64(cycle))
		runtime.GC()
		layers, err := rp.cycle(int64(cycle))
		if err != nil {
			return err
		}
		rec.fold()
		want := repoDigest(res.Repo)
		if cfg.wrongAnswer {
			want = "wrong"
		}
		out.check(rp.dtd == res.Repo.DTD.Render(), "cycle %d: replay derived a different DTD", cycle)
		out.check(rp.digest == want, "cycle %d: replay conformed different documents", cycle)
		if cycle > 0 {
			plain = append(plain, ms(wall))
			traced = append(traced, ms(rp.wall))
			self = append(self, ms(wall-layers))
		}
	}
	n := float64(len(plain))
	t := rec.layerTotals()
	count := func(name string) float64 {
		if lt := t[name]; lt != nil {
			return float64(lt.n)
		}
		return 0
	}
	perCall := func(name string) float64 { return ratio(sumNs(t, name), count(name)) }
	converted := count("convert")
	v := out.values
	v["htmlparse.ns_per_doc"] = ratio(sumNs(t, "htmlparse"), converted)
	v["tidy.ns_per_doc"] = ratio(sumNs(t, "tidy"), converted)
	v["convert.ns_per_doc"] = ratio(sumNs(t, "convert"), converted)
	v["convert.identified_ratio"] = ratio(float64(rp.identified), float64(rp.tokens))
	v["schema.extract_ns_per_doc"] = perCall("schema.extract")
	v["schema.fold_ns_per_doc"] = perCall("schema.fold")
	v["schema.subtract_ns_per_doc"] = perCall("schema.subtract")
	v["schema.mine_ms"] = sumNs(t, "schema.mine") / n / 1e6
	v["dtd.derive_ms"] = sumNs(t, "dtd.derive") / n / 1e6
	v["mapping.conform_ns_per_doc"] = perCall("mapping.conform")
	v["mapping.edit_cost_per_doc"] = ratio(float64(rp.editCost), float64(rp.mapped))
	v["crawler.recrawl_ms"] = sumNs(t, "crawler.recrawl") / n / 1e6
	v["crawler.not_modified_ratio"] = ratio(float64(rp.notModified), float64(rp.notModified+rp.fetched))
	v["site.handler_us"] = ratio(float64(st.handlerNs.Load()-h0), float64(st.requests.Load()-r0)) / 1e3
	v["watch.self_ms"] = median(self)
	runtimeMetrics(out, rt, n)
	v["trace.overhead_ratio"] = median(traced) / median(plain)
	fmt.Fprintf(os.Stderr, "recrawl-delta trace: %d delta cycles replayed, watch self %.1f ms of %.1f ms\n",
		len(plain), median(self), median(plain))
	return rec.write(cfg.spansOut)
}

// timedTransport records a span around every fetch the replay's crawler
// makes. Crawler workers call it concurrently, so it locks its log.
type timedTransport struct {
	next  http.RoundTripper
	mu    sync.Mutex
	lg    *spanLog
	trace atomic.Int64
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.mu.Lock()
	t.lg.spans = append(t.lg.spans, spanRec{Name: "crawler.fetch", Start: int64(start.Sub(t.lg.r.origin)),
		End: int64(time.Since(t.lg.r.origin)), Parent: -1, Trace: t.trace.Load()})
	t.mu.Unlock()
	return resp, err
}

func (t *timedTransport) CloseIdleConnections() {
	if c, ok := t.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// replayDoc is one live document of the replay.
type replayDoc struct {
	idx   int
	url   string
	xml   *dom.Node
	paths *schema.DocPaths
}

// replayWatch re-runs a watch cycle through the layers' exported
// functions, keeping its own crawl state, delta accumulator and live
// documents, and classifying pages exactly as the watcher does.
type replayWatch struct {
	p    *core.Pipeline
	conv *convert.Converter
	c    *crawler.Crawler
	rec  *recorder
	lg   *spanLog
	seed string

	crawl *crawler.CrawlState
	acc   *schema.Accumulator
	docs  map[string]*replayDoc
	next  int

	dtd, digest string
	wall        time.Duration

	identified, tokens, editCost, mapped int
	fetched, notModified                 int
}

// reset clears the replay's counters (not its state).
func (rp *replayWatch) reset() {
	rp.identified, rp.tokens, rp.editCost, rp.mapped, rp.fetched, rp.notModified = 0, 0, 0, 0, 0, 0
}

// cycle replays one watch cycle and returns the wall time its layers took:
// the recrawl, the conversions and folds, mining, derivation and mapping.
func (rp *replayWatch) cycle(tr int64) (time.Duration, error) {
	lg := rp.lg
	t0 := time.Now()
	var pages []crawler.Page
	var rep *crawler.Report
	var err error
	lg.timed("crawler.recrawl", -1, tr, func() {
		rep, err = rp.c.RecrawlTo(context.Background(), rp.seed, rp.crawl, func(p crawler.Page) { pages = append(pages, p) })
	})
	if err != nil {
		return 0, err
	}
	rp.fetched += rep.Fetched
	rp.notModified += rep.NotModified

	retire := func(d *replayDoc) error {
		var err error
		lg.timed("schema.subtract", -1, tr, func() { err = rp.acc.Subtract(d.idx, d.paths) })
		delete(rp.docs, d.url)
		return err
	}
	for _, pg := range pages {
		d := rp.docs[pg.URL]
		switch {
		case pg.Change == crawler.ChangeUnchanged:
		case pg.Change == crawler.ChangeVanished || !pg.OnTopic:
			if d != nil {
				if err := retire(d); err != nil {
					return 0, err
				}
			}
		default:
			x, st := convertTraced(lg, -1, tr, rp.conv, pg.HTML)
			rp.identified += st.IdentifiedTokens
			rp.tokens += st.Tokens
			var paths *schema.DocPaths
			lg.timed("schema.extract", -1, tr, func() { paths = schema.Extract(x) })
			if d != nil {
				lg.timed("schema.subtract", -1, tr, func() { err = rp.acc.Subtract(d.idx, d.paths) })
				if err != nil {
					return 0, err
				}
			} else {
				d = &replayDoc{idx: rp.next, url: pg.URL}
				rp.next++
				rp.docs[pg.URL] = d
			}
			d.xml, d.paths = x, paths
			lg.timed("schema.fold", -1, tr, func() { rp.acc.Add(d.idx, paths) })
		}
	}
	if !rep.Canceled && !rep.BudgetExhausted && rep.Skipped == 0 {
		var orphans []string
		for u := range rp.docs {
			if _, ok := rp.crawl.Pages[u]; !ok {
				orphans = append(orphans, u)
			}
		}
		sort.Strings(orphans)
		for _, u := range orphans {
			if err := retire(rp.docs[u]); err != nil {
				return 0, err
			}
		}
	}

	live := make([]*replayDoc, 0, len(rp.docs))
	for _, d := range rp.docs {
		live = append(live, d)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].idx < live[j].idx })
	var sch *schema.Schema
	lg.timed("schema.mine", -1, tr, func() { sch = rp.p.MineStats(rp.acc) })
	var dt *dtd.DTD
	lg.timed("dtd.derive", -1, tr, func() { dt = rp.p.DeriveDTD(sch) })
	conformed := make([]*dom.Node, len(live))
	costs := make([]int, runtime.NumCPU())
	if err := parallel(len(costs), func(wk int) error {
		ml := rp.rec.log()
		for i := wk; i < len(live); i += len(costs) {
			var est mapping.EditStats
			ml.timed("mapping.conform", -1, tr, func() { conformed[i], est = mapping.Conform(live[i].xml, dt) })
			costs[wk] += est.Cost()
		}
		return nil
	}); err != nil {
		return 0, err
	}
	layers := time.Since(t0)
	rp.wall = layers
	for _, c := range costs {
		rp.editCost += c
	}
	rp.mapped += len(live)

	rp.dtd = dt.Render()
	dg := newDigest()
	for i, d := range live {
		dg.add(d.url, []byte(xmlout.Marshal(conformed[i])))
	}
	rp.digest = dg.sum()
	return layers, nil
}
