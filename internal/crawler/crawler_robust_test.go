package crawler

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"webrev/internal/corpus"
	"webrev/internal/faultinject"
)

// fastPolicy keeps retries snappy for tests.
func fastPolicy() FetchPolicy {
	return FetchPolicy{
		Timeout:     time.Second,
		MaxRetries:  3,
		BackoffBase: time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
	}
}

func pathsOf(pages []Page) []string {
	out := make([]string, 0, len(pages))
	for _, p := range pages {
		u, err := url.Parse(p.URL)
		if err != nil {
			continue
		}
		out = append(out, u.Path)
	}
	sort.Strings(out)
	return out
}

// Regression for the page-budget bug: failed fetches must not consume the
// MaxPages budget. The old code truncated the frontier before fetching, so
// dead links ate the budget and live pages were lost forever.
func TestCrawlMaxPagesNotConsumedByFailures(t *testing.T) {
	mux := http.NewServeMux()
	var links []string
	for i := 0; i < 5; i++ {
		links = append(links, fmt.Sprintf(`<a href="/dead/%d.html">d</a>`, i))
	}
	for i := 0; i < 10; i++ {
		links = append(links, fmt.Sprintf(`<a href="/live/%d.html">l</a>`, i))
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, strings.Join(links, "\n"))
	})
	mux.HandleFunc("/dead/", func(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) })
	mux.HandleFunc("/live/", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "alive") })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Budget of 8: root + 7 more. Sorted level-1 frontier puts the 5 dead
	// URLs first, so pre-truncation would cap the crawl at 3 pages.
	c := &Crawler{MaxPages: 8, Fetch: fastPolicy()}
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 8 {
		t.Fatalf("fetched %d pages, want the full budget of 8 (report: %s)", len(pages), rep)
	}
	if rep.Fetched != 8 || rep.Failed != 5 {
		t.Fatalf("report fetched=%d failed=%d, want 8/5", rep.Fetched, rep.Failed)
	}
	if rep.ErrorClasses[ClassHTTP4xx] != 5 {
		t.Fatalf("error classes = %v, want 5×http-4xx", rep.ErrorClasses)
	}
	if rep.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3 live URLs dropped at the cap", rep.Skipped)
	}
}

func TestBuildSiteEmptyName(t *testing.T) {
	resumes := []*corpus.Resume{
		{ID: 1, Name: "", HTML: "<html><body>anon</body></html>"},
		{ID: 2, Name: "Bob", HTML: "<html><body>bob</body></html>"},
	}
	site := BuildSite(resumes, nil) // must not panic on Name[0]
	if _, ok := site.pages["/resumes/1.html"]; !ok {
		t.Fatal("anonymous resume not served")
	}
	// The anonymous resume is reachable from the root via its index page.
	srv := httptest.NewServer(site.Handler())
	defer srv.Close()
	pages, err := (&Crawler{Fetch: fastPolicy()}).Crawl(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range pages {
		if strings.HasSuffix(p.URL, "/resumes/1.html") {
			found = true
		}
	}
	if !found {
		t.Fatal("anonymous resume unreachable from root")
	}
}

func TestCrawlReportHealthy(t *testing.T) {
	site, srv := testSite(t, 8, 2)
	c := &Crawler{Fetch: fastPolicy()}
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fetched != site.PageCount() || len(pages) != site.PageCount() {
		t.Fatalf("fetched %d of %d", rep.Fetched, site.PageCount())
	}
	if rep.Failed != 0 || rep.Retried != 0 || rep.Skipped != 0 || rep.Truncated != 0 {
		t.Fatalf("healthy crawl report has failures: %s", rep)
	}
	if rep.Bytes <= 0 || rep.Wall <= 0 {
		t.Fatalf("bytes=%d wall=%v", rep.Bytes, rep.Wall)
	}
	if rep.BudgetExhausted || rep.Canceled {
		t.Fatalf("unexpected degradation flags: %s", rep)
	}
}

func TestCrawlErrorBudget(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		for i := 0; i < 20; i++ {
			fmt.Fprintf(w, `<a href="/gone/%d.html">x</a>`, i)
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Crawler{MaxFailures: 3, Workers: 1, Fetch: fastPolicy()}
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BudgetExhausted {
		t.Fatalf("budget not reported exhausted: %s", rep)
	}
	if len(pages) != 1 {
		t.Fatalf("partial results = %d pages, want the root", len(pages))
	}
	if rep.Failed < 3 || rep.Skipped == 0 {
		t.Fatalf("failed=%d skipped=%d, want ≥3 failures and some skips", rep.Failed, rep.Skipped)
	}
}

func TestCrawlCancellationMidCrawl(t *testing.T) {
	site, _ := testSite(t, 20, 5)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(30 * time.Millisecond):
		}
		site.Handler().ServeHTTP(w, r)
	})
	srv := httptest.NewServer(slow)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond) // let the root land, then pull the plug
		cancel()
	}()
	start := time.Now()
	pages, rep, err := (&Crawler{Workers: 2, Fetch: fastPolicy()}).CrawlContext(ctx, srv.URL+"/")
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !rep.Canceled {
		t.Fatalf("report not marked canceled: %s", rep)
	}
	if len(pages) >= site.PageCount() {
		t.Fatalf("crawl finished all %d pages despite cancellation", len(pages))
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("cancellation took %v", time.Since(start))
	}
}

// A hanging endpoint must cost at most the per-attempt timeout budget, not
// stall the crawl forever.
func TestCrawlHangingEndpointBoundedByTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, `<a href="/hang.html">h</a><a href="/ok.html">o</a>`)
	})
	mux.HandleFunc("/hang.html", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	})
	mux.HandleFunc("/ok.html", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := &Crawler{Fetch: FetchPolicy{
		Timeout: 100 * time.Millisecond, MaxRetries: 1,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	}}
	start := time.Now()
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("crawl took %v against a hanging endpoint", elapsed)
	}
	if got := pathsOf(pages); !reflect.DeepEqual(got, []string{"/", "/ok.html"}) {
		t.Fatalf("pages = %v", got)
	}
	if rep.Failed != 1 || rep.ErrorClasses[ClassTimeout] != 1 {
		t.Fatalf("hang not accounted as timeout: %s", rep)
	}
}

// The acceptance-criterion test: with seeded fault injection at a 20%
// transient failure rate, the crawl recovers exactly the page set a
// fault-free crawl returns.
func TestCrawlRecoversUnderFaultInjection(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 42})
	site := BuildSite(g.Corpus(20), distractors(g, 5))

	clean := httptest.NewServer(site.Handler())
	defer clean.Close()
	inj := faultinject.New(site.Handler(), faultinject.Config{
		Seed:      7,
		Rate:      0.2,
		SlowDelay: 5 * time.Millisecond,
	})
	faulty := httptest.NewServer(inj)
	defer faulty.Close()

	mk := func() *Crawler {
		return &Crawler{Workers: 4, Filter: ResumeFilter(3), Fetch: FetchPolicy{
			Timeout: 250 * time.Millisecond, MaxRetries: 3,
			BackoffBase: 2 * time.Millisecond, BackoffMax: 10 * time.Millisecond,
		}}
	}
	wantPages, cleanRep, err := mk().CrawlContext(context.Background(), clean.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if cleanRep.Fetched != site.PageCount() {
		t.Fatalf("clean crawl fetched %d of %d", cleanRep.Fetched, site.PageCount())
	}
	gotPages, rep, err := mk().CrawlContext(context.Background(), faulty.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Total() == 0 {
		t.Fatal("no faults injected; the test is vacuous — change the seed")
	}
	want, got := pathsOf(wantPages), pathsOf(gotPages)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("faulty crawl recovered %d pages, clean crawl %d\n got: %v\nwant: %v\nreport: %s\ninjected: %v",
			len(got), len(want), got, want, rep, inj.Injected())
	}
	if rep.Retried == 0 {
		t.Fatalf("faults injected (%v) but nothing retried: %s", inj.Injected(), rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("transient faults became permanent failures: %s", rep)
	}
	// Determinism: the same seed injects the same faults.
	inj2 := faultinject.New(site.Handler(), faultinject.Config{Seed: 7, Rate: 0.2})
	for path := range site.pages {
		if inj.Decide(path) != inj2.Decide(path) {
			t.Fatalf("fault decision for %s not deterministic", path)
		}
	}
}

// Permanent faults (a path that never recovers) land in the failure
// tallies instead of blocking the crawl.
func TestCrawlSurvivesPermanentFaults(t *testing.T) {
	g := corpus.New(corpus.Options{Seed: 5})
	site := BuildSite(g.Corpus(12), distractors(g, 3))
	inj := faultinject.New(site.Handler(), faultinject.Config{
		Seed:          3,
		Rate:          0.2,
		Kinds:         []faultinject.Kind{faultinject.Status500},
		FaultsPerPath: -1, // never recovers
	})
	srv := httptest.NewServer(inj)
	defer srv.Close()

	c := &Crawler{Fetch: FetchPolicy{
		Timeout: 250 * time.Millisecond, MaxRetries: 2,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond,
	}}
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 {
		t.Skip("seed faulted no reachable path; adjust the seed")
	}
	if rep.ErrorClasses[ClassHTTP5xx] != rep.Failed {
		t.Fatalf("failures not classified as http-5xx: %s", rep)
	}
	if len(pages)+rep.Failed < site.PageCount() {
		// Failed index pages hide their subtrees; at minimum every fetched
		// or failed URL is accounted for.
		t.Logf("note: %d pages unreachable behind failed indexes", site.PageCount()-len(pages)-rep.Failed)
	}
	if rep.Fetched != len(pages) {
		t.Fatalf("report fetched=%d but %d pages returned", rep.Fetched, len(pages))
	}
}

func TestCrawlTruncationSurfacesInReport(t *testing.T) {
	site, srv := testSite(t, 5, 0)
	c := &Crawler{Fetch: fastPolicy()}
	c.Fetch.MaxBodyBytes = 256 // every generated page is bigger than this
	pages, rep, err := c.CrawlContext(context.Background(), srv.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Truncated == 0 {
		t.Fatalf("no truncation reported over %d pages at a 256-byte cap", site.PageCount())
	}
	n := 0
	for _, p := range pages {
		if p.Truncated {
			n++
			if len(p.HTML) != 256 {
				t.Fatalf("truncated page has %d bytes, cap 256", len(p.HTML))
			}
		}
	}
	if n != rep.Truncated {
		t.Fatalf("report truncated=%d, pages flagged=%d", rep.Truncated, n)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		Fetched: 10, Failed: 2, Retried: 3, Skipped: 1, Truncated: 1,
		Bytes: 4096, Wall: 120 * time.Millisecond,
		ErrorClasses:    map[string]int{ClassTimeout: 1, ClassHTTP5xx: 1},
		BudgetExhausted: true,
	}
	s := r.String()
	for _, want := range []string{"fetched 10", "failed 2", "retried 3", "truncated 1",
		"timeout:1", "http-5xx:1", "error budget exhausted"} {
		if !strings.Contains(s, want) {
			t.Errorf("report %q missing %q", s, want)
		}
	}
}
