// Command crawl demonstrates the acquisition path of the paper's system: it
// serves a generated resume site on localhost, crawls it with the topical
// crawler, and reports which pages passed the resume filter plus a crawl
// report (fetched/failed/retried/skipped, error classes, bytes, wall time).
//
// The fetch layer is fault tolerant: per-request timeouts, bounded retries
// with exponential backoff for transient failures, an error budget, and
// Ctrl-C cancellation. With -fault-rate > 0 the served site is wrapped in
// the deterministic fault-injection middleware so the robustness machinery
// can be watched working.
//
// Usage:
//
//	crawl [-n 30] [-distractors 10] [-seed 1] [-workers 8]
//	      [-timeout 10s] [-retries 2] [-max-pages 0] [-max-failures 0]
//	      [-fault-rate 0] [-fault-seed 1]
//	      [-build dir] [-quarantine dir] [-metrics snap.json] [-pprof addr]
//
// With -build DIR the crawl feeds the full pipeline (crawl-then-build):
// once the crawl ends, its on-topic pages run through the sharded,
// disk-backed build in DIR — conversion, schema mining, DTD derivation and
// conformance mapping — and the result is reported. The repository lands
// in DIR/final, which repository.LoadDisk opens. The shards checkpoint as
// they go, so a rerun over the same DIR after Ctrl-C resumes instead of
// restarting. -quarantine DIR persists documents the build dropped, for
// `webrev quarantine`. See ARCHITECTURE.md.
//
// -metrics FILE writes a JSON snapshot of the run's stage timing and
// counters (the same format the pipeline's observability layer emits);
// -pprof ADDR serves /debug/pprof, /debug/vars and /metrics on ADDR while
// the crawl runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/obs"
)

type options struct {
	n           int
	distractors int
	seed        int64
	workers     int
	timeout     time.Duration
	retries     int
	maxPages    int
	maxFailures int
	faultRate   float64
	faultSeed   int64
	buildDir    string
	quarantine  string
	metricsOut  string
	pprofAddr   string
}

func main() {
	var o options
	flag.IntVar(&o.n, "n", 30, "resumes on the site")
	flag.IntVar(&o.distractors, "distractors", 10, "off-topic pages on the site")
	flag.Int64Var(&o.seed, "seed", 1, "corpus seed")
	flag.IntVar(&o.workers, "workers", 8, "concurrent fetches (fixed worker pool)")
	flag.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-request timeout")
	flag.IntVar(&o.retries, "retries", 2, "retries per URL for transient failures (negative disables)")
	flag.IntVar(&o.maxPages, "max-pages", 0, "page budget (0 = crawler default)")
	flag.IntVar(&o.maxFailures, "max-failures", 0, "error budget: stop after this many failed URLs (0 = unlimited)")
	flag.Float64Var(&o.faultRate, "fault-rate", 0, "inject transient faults on this fraction of paths (demo)")
	flag.Int64Var(&o.faultSeed, "fault-seed", 1, "fault-injection seed")
	flag.StringVar(&o.buildDir, "build", "", "crawl-then-build: run the sharded build over the on-topic pages in this directory (resumes on rerun)")
	flag.StringVar(&o.quarantine, "quarantine", "", "persist documents the build quarantined to this directory (see `webrev quarantine`)")
	flag.StringVar(&o.metricsOut, "metrics", "", "write a JSON metrics snapshot of the crawl to this file")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve /debug/pprof, /debug/vars and /metrics on this address during the crawl")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "crawl:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	g := corpus.New(corpus.Options{Seed: o.seed})
	var off []string
	for i := 0; i < o.distractors; i++ {
		off = append(off, g.Distractor())
	}
	site := crawler.BuildSite(g.Corpus(o.n), off)

	handler := http.Handler(site.Handler())
	var inj *faultinject.Injector
	if o.faultRate > 0 {
		inj = faultinject.New(handler, faultinject.Config{
			Seed: o.faultSeed,
			Rate: o.faultRate,
		})
		handler = inj
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	defer srv.Close()

	seedURL := "http://" + ln.Addr().String() + "/"
	fmt.Printf("serving %d pages at %s\n", site.PageCount(), seedURL)
	if inj != nil {
		fmt.Printf("injecting transient faults on ~%.0f%% of paths (seed %d)\n",
			o.faultRate*100, o.faultSeed)
	}

	coll := obs.NewCollector()
	var tr obs.Tracer
	if o.metricsOut != "" || o.pprofAddr != "" || o.buildDir != "" {
		tr = coll
	}
	if o.pprofAddr != "" {
		dbg, err := obs.ServeDebug(o.pprofAddr, coll)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug endpoint at http://%s/debug/pprof/ (metrics at /metrics)\n", dbg.Addr)
	}

	c := &crawler.Crawler{
		Workers:     o.workers,
		MaxPages:    o.maxPages,
		MaxFailures: o.maxFailures,
		Filter:      crawler.ResumeFilter(3),
		Fetch: crawler.FetchPolicy{
			Timeout:    o.timeout,
			MaxRetries: o.retries,
		},
		Tracer: tr,
	}
	writeMetrics := func() error {
		if o.metricsOut == "" {
			return nil
		}
		if err := coll.Snapshot().WriteFile(o.metricsOut); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot to %s\n", o.metricsOut)
		return nil
	}
	if o.buildDir != "" {
		if err := runBuild(ctx, o, c, seedURL, coll); err != nil {
			return err
		}
		if inj != nil {
			fmt.Printf("faults injected: %d %v\n", inj.Total(), inj.Injected())
		}
		return writeMetrics()
	}

	pages, rep, err := c.CrawlContext(ctx, seedURL)
	if err != nil {
		fmt.Printf("crawl ended early: %v\nreport: %s\n", err, rep)
		return writeMetrics()
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].URL < pages[j].URL })
	onTopic := 0
	for _, p := range pages {
		mark := " "
		if p.OnTopic {
			mark = "*"
			onTopic++
		}
		trunc := ""
		if p.Truncated {
			trunc = " [truncated]"
		}
		fmt.Printf("  %s %s (%d bytes)%s\n", mark, p.URL, len(p.HTML), trunc)
	}
	fmt.Printf("fetched %d pages, %d on topic (marked *)\n", len(pages), onTopic)
	fmt.Printf("report: %s\n", rep)
	if tr != nil {
		fmt.Print(coll.Snapshot().Summary())
	}
	if inj != nil {
		fmt.Printf("faults injected: %d %v\n", inj.Total(), inj.Injected())
	}
	return writeMetrics()
}

// runBuild is the crawl-then-build path: the crawler's on-topic pages,
// sorted by URL so a rerun sees the same input order, feed the sharded
// disk-backed build in o.buildDir. A rerun over the same directory resumes
// from the shards' checkpoints.
func runBuild(ctx context.Context, o options, c *crawler.Crawler, seedURL string, coll *obs.Collector) error {
	p, err := core.New(core.Config{
		Concepts:      concept.ResumeConcepts(),
		Constraints:   concept.ResumeConstraints(),
		RootName:      "resume",
		Tracer:        coll,
		QuarantineDir: o.quarantine,
	})
	if err != nil {
		return err
	}
	sources, rep, err := core.Acquire(ctx, c, seedURL)
	fmt.Printf("report: %s\n", rep)
	if err != nil {
		fmt.Printf("crawl ended early: %v\n", err)
		if ctx.Err() != nil {
			return nil
		}
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i].Name < sources[j].Name })
	res, err := p.BuildSharded(ctx, sources, core.ShardOptions{Dir: o.buildDir})
	if err != nil {
		fmt.Printf("build ended early: %v\n", err)
		return nil
	}
	defer res.Repo.Store().Close()
	snap := coll.Snapshot()
	fmt.Printf("crawled %d on-topic documents; built %d into %s; schema %d paths; DTD %d elements\n",
		len(sources), res.Repo.Len(), filepath.Join(o.buildDir, "final"), len(res.Schema.Paths()), res.DTD.Len())
	if len(res.Quarantined) > 0 {
		fmt.Printf("quarantined %d of %d documents (failure ratio %.1f%%)\n",
			len(res.Quarantined), res.TotalInput, res.FailureRatio()*100)
	}
	fmt.Printf("%d shards merged (%d resumed); total mapping cost %d edits\n",
		snap.Gauges[obs.GaugeStreamShards], snap.Counters[obs.CtrShardsResumed], res.TotalMapCost)
	fmt.Print(snap.Summary())
	fmt.Print(res.DTD.Render())
	return nil
}
