package core

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
)

func TestAcquire(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 21})
	var off []string
	for i := 0; i < 4; i++ {
		off = append(off, g.Distractor())
	}
	site := crawler.BuildSite(g.Corpus(10), off)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	c := &crawler.Crawler{Workers: 4, Filter: crawler.ResumeFilter(3)}
	sources, rep, err := Acquire(context.Background(), c, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 10 {
		t.Fatalf("acquired %d sources, want the 10 on-topic resumes", len(sources))
	}
	for _, s := range sources {
		if !strings.Contains(s.Name, "/resumes/") {
			t.Fatalf("off-topic source acquired: %s", s.Name)
		}
	}
	if rep.Fetched != site.PageCount() || rep.Failed != 0 {
		t.Fatalf("report: %s", rep)
	}
}

// Acquisition under transient faults still yields the full on-topic corpus.
func TestAcquireUnderFaults(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 22})
	site := crawler.BuildSite(g.Corpus(10), nil)
	inj := faultinject.New(site.Handler(), faultinject.Config{
		Seed: 4, Rate: 0.25, SlowDelay: 2 * time.Millisecond,
	})
	srv := httptest.NewServer(inj)
	defer srv.Close()

	c := &crawler.Crawler{Workers: 4, Filter: crawler.ResumeFilter(3),
		Fetch: crawler.FetchPolicy{
			Timeout: 250 * time.Millisecond, MaxRetries: 3,
			BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
		}}
	sources, rep, err := Acquire(context.Background(), c, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 10 {
		t.Fatalf("acquired %d of 10 under faults (report %s, injected %v)",
			len(sources), rep, inj.Injected())
	}
	if rep.Failed != 0 {
		t.Fatalf("transient faults reported permanent: %s", rep)
	}
}

func TestAcquireCanceled(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 23})
	site := crawler.BuildSite(g.Corpus(10), nil)
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first fetch
	c := &crawler.Crawler{Filter: crawler.ResumeFilter(3)}
	sources, rep, err := Acquire(ctx, c, srv.URL+"/")
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(sources) != 0 {
		t.Fatalf("canceled acquire returned %d sources", len(sources))
	}
	if rep == nil || !rep.Canceled {
		t.Fatalf("report missing cancellation: %v", rep)
	}
}

// TestAcquireFeedsBuildSharded wires acquisition into the sharded build
// over the in-memory site and checks it matches the batch crawl-then-build
// result.
func TestAcquireFeedsBuildSharded(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 31})
	site := crawler.BuildSite(g.Corpus(12), []string{g.Distractor(), g.Distractor()})
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()

	sources, rep, err := Acquire(context.Background(), &crawler.Crawler{Workers: 4, Filter: crawler.ResumeFilter(3)}, srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fetched != site.PageCount() {
		t.Fatalf("crawl fetched %d of %d", rep.Fetched, site.PageCount())
	}
	res, err := resumePipeline(t).BuildSharded(context.Background(), sources, ShardOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Repo.Store().Close()
	if res.Repo.Len() != 12 {
		t.Fatalf("built %d docs, want the 12 on-topic resumes", res.Repo.Len())
	}
	if renderDiskRepo(t, res.Repo) != renderDiskRepo(t, singleProcessRepo(t, sources)) {
		t.Fatal("sharded crawl-then-build differs from batch crawl-then-build")
	}
}
