// Package crawler substitutes for the topic-specific Web crawler the paper
// used to gather its resume corpus (§4, ref [20]). It provides an in-memory
// web site serving a generated corpus over net/http and a concurrent
// breadth-first crawler with a keyword-based topical filter, so the
// acquisition path — fetch, filter, collect — is exercised end to end
// without live Web access.
//
// The crawler is built for an unreliable Web: every fetch runs under a
// FetchPolicy (per-attempt timeout, bounded retries with exponential
// backoff and jitter for transient failures), the crawl is cancelable via
// context.Context, and every crawl returns a Report accounting for each
// URL — fetched, failed by error class, retried, skipped, or truncated —
// so degradation is structured rather than silent. The companion package
// faultinject provides a deterministic fault-injection middleware for
// testing this machinery.
package crawler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"webrev/internal/corpus"
	"webrev/internal/dom"
	"webrev/internal/htmlparse"
	"webrev/internal/obs"
)

// Site is an in-memory website. Paths map to HTML bodies. Pages may be
// mutated while the site is being served (SetPage/RemovePage are
// goroutine-safe), which is how chaos tests shift templates under a running
// watch loop; the handler serves strong ETags derived from each body and
// honors If-None-Match, so conditional recrawls exercise real 304s.
type Site struct {
	mu    sync.RWMutex
	pages map[string]string
}

// BuildSite lays out resumes and distractor pages under a linked index
// hierarchy: / links to per-letter index pages, which link to the documents.
func BuildSite(resumes []*corpus.Resume, distractors []string) *Site {
	s := &Site{pages: make(map[string]string)}
	byLetter := make(map[byte][]string)
	for _, r := range resumes {
		path := fmt.Sprintf("/resumes/%d.html", r.ID)
		s.pages[path] = r.HTML
		name := r.Name
		if name == "" {
			// Real crawls meet anonymous documents; file them under a
			// placeholder letter instead of panicking on Name[0].
			name = fmt.Sprintf("Unnamed %d", r.ID)
		}
		l := name[0]
		byLetter[l] = append(byLetter[l], fmt.Sprintf(`<li><a href="%s">%s</a></li>`, path, name))
	}
	var letters []byte
	for l := range byLetter {
		letters = append(letters, l)
	}
	sort.Slice(letters, func(i, j int) bool { return letters[i] < letters[j] })

	var rootLinks []string
	for _, l := range letters {
		idx := fmt.Sprintf("/index-%c.html", l)
		s.pages[idx] = fmt.Sprintf(
			"<html><body><h1>People %c</h1><ul>%s</ul><a href=\"/\">home</a></body></html>",
			l, strings.Join(byLetter[l], "\n"))
		rootLinks = append(rootLinks, fmt.Sprintf(`<li><a href="%s">Index %c</a></li>`, idx, l))
	}
	for i, d := range distractors {
		path := fmt.Sprintf("/misc/%d.html", i)
		s.pages[path] = d
		rootLinks = append(rootLinks, fmt.Sprintf(`<li><a href="%s">Page %d</a></li>`, path, i))
	}
	s.pages["/"] = "<html><body><h1>Directory</h1><ul>" +
		strings.Join(rootLinks, "\n") + "</ul></body></html>"
	return s
}

// PageCount returns the number of pages the site serves.
func (s *Site) PageCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// Page returns the body served at path, if any.
func (s *Site) Page(path string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	body, ok := s.pages[path]
	return body, ok
}

// SetPage installs or replaces the body served at path. Safe to call while
// the site is being served; the page's ETag changes with the body.
func (s *Site) SetPage(path, body string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[path] = body
}

// RemovePage deletes the page served at path, so subsequent fetches 404 —
// how tests make documents vanish mid-watch.
func (s *Site) RemovePage(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pages, path)
}

// Paths returns every served path in sorted order.
func (s *Site) Paths() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pages))
	for p := range s.pages {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// siteETag derives the strong entity tag the site serves for a body.
func siteETag(body string) string {
	sum := sha256.Sum256([]byte(body))
	return `"` + hex.EncodeToString(sum[:8]) + `"`
}

// Handler serves the site with conditional-request support: every page
// carries a strong content-derived ETag and a matching If-None-Match comes
// back 304 without a body.
func (s *Site) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.RLock()
		body, ok := s.pages[r.URL.Path]
		s.mu.RUnlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		etag := siteETag(body)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		io.WriteString(w, body)
	})
}

// Page is one fetched document.
type Page struct {
	URL     string
	HTML    string
	OnTopic bool
	// Truncated is set when the body was clipped at
	// FetchPolicy.MaxBodyBytes.
	Truncated bool
	// Change classifies the page against the previous cycle's CrawlState.
	// Plain crawls (CrawlTo/CrawlContext) always report ChangeFetched;
	// recrawls (RecrawlTo) report unchanged/changed/new/vanished. Unchanged
	// and vanished pages carry no HTML.
	Change Change
}

// Crawler is a breadth-first, level-parallel crawler with a topical filter.
// The zero value needs at least Filter; other fields default sensibly.
type Crawler struct {
	// Client performs fetches (http.DefaultClient when nil); per-attempt
	// timeouts come from Fetch, not the client.
	Client *http.Client
	// Workers is the fixed worker-pool size for concurrent fetches
	// (default 8). A level with 10k URLs still uses only Workers
	// goroutines.
	Workers int
	// MaxPages stops the crawl after this many successfully fetched pages
	// (default 10000). Failed fetches do not consume the budget.
	MaxPages int
	// MaxDepth bounds link distance from the seed (default 10).
	MaxDepth int
	// MaxFailures is the error budget: when this many URLs have failed
	// permanently the crawl stops and returns partial results with
	// Report.BudgetExhausted set. Zero or negative means unlimited.
	MaxFailures int
	// Fetch is the per-URL fetch policy (timeouts, retries, backoff, body
	// cap). The zero value selects production defaults.
	Fetch FetchPolicy
	// Filter classifies a fetched page as on-topic. Off-topic pages still
	// have their links followed (index pages are off-topic but lead to
	// resumes). Nil keeps everything.
	Filter func(url, html string) bool
	// Tracer, when non-nil, receives the finished crawl's Report as the
	// obs.StageCrawl timing and crawl.* counters (see Report.Record).
	Tracer obs.Tracer
}

// Crawl fetches breadth-first from seed and returns every fetched page in a
// deterministic (URL-sorted per level) order. It is CrawlContext without
// cancellation, discarding the report.
func (c *Crawler) Crawl(seed string) ([]Page, error) {
	pages, _, err := c.CrawlContext(context.Background(), seed)
	return pages, err
}

// CrawlContext fetches breadth-first from seed until the frontier is
// exhausted, MaxPages pages have been fetched, MaxDepth is reached, the
// error budget is spent, or ctx ends. It always returns the pages fetched
// so far plus a Report; the error is non-nil only for an unusable seed or
// a canceled/expired context (partial pages are still returned then).
func (c *Crawler) CrawlContext(ctx context.Context, seed string) ([]Page, *Report, error) {
	var pages []Page
	rep, err := c.CrawlTo(ctx, seed, func(p Page) { pages = append(pages, p) })
	return pages, rep, err
}

// CrawlTo is the streaming form of CrawlContext: emit receives each fetched
// page as soon as its fetch completes, in the same deterministic order
// CrawlContext returns, instead of the pages accumulating until the crawl
// ends. emit runs synchronously on the crawl loop, so a slow consumer
// backpressures the crawl itself; no unbounded page buffer forms anywhere.
// CrawlContext is built on this.
func (c *Crawler) CrawlTo(ctx context.Context, seed string, emit func(Page)) (*Report, error) {
	return c.crawl(ctx, seed, nil, emit)
}

// RecrawlTo revisits a site against the previous cycle's CrawlState,
// classifying every page instead of just fetching it. Pages with a prior
// PageRecord are refetched conditionally (when the fetch policy
// revalidates) and compared by content hash: a 304 or an identical hash
// emits ChangeUnchanged with no body, a different body emits ChangeChanged,
// and unrecorded URLs emit ChangeNew. Unchanged pages reuse the recorded
// link set to keep driving the breadth-first frontier, and the recorded
// topical verdict (the filter never sees a body that was not transferred).
//
// After a crawl that ran to completion — not canceled, not stopped by the
// error budget, page cap or depth cap — recorded URLs that were neither
// revisited nor merely skipped are retired: removed from state and emitted
// as ChangeVanished (sorted by URL, after all fetched pages). A URL whose
// refetch failed transiently keeps its record and is NOT retired; only a
// permanent http-4xx retires early. state is mutated in place to describe
// the new cycle; the caller persists it between cycles.
func (c *Crawler) RecrawlTo(ctx context.Context, seed string, state *CrawlState, emit func(Page)) (*Report, error) {
	if state == nil {
		state = NewCrawlState()
	}
	return c.crawl(ctx, seed, state, emit)
}

// crawl is the breadth-first loop behind CrawlTo (state == nil) and
// RecrawlTo (state != nil).
func (c *Crawler) crawl(ctx context.Context, seed string, state *CrawlState, emit func(Page)) (*Report, error) {
	start := time.Now()
	workers := c.Workers
	if workers <= 0 {
		workers = 8
	}
	client := c.Client
	if client == nil {
		// http.DefaultClient keeps only two idle connections per host, so a
		// worker pool hammering one site re-dials most fetches every wave.
		// Give the pool one reusable connection per worker instead; the
		// idle connections are torn down when the crawl ends.
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConnsPerHost = workers
		defer t.CloseIdleConnections()
		client = &http.Client{Transport: t}
	}
	maxPages := c.MaxPages
	if maxPages <= 0 {
		maxPages = 10000
	}
	maxDepth := c.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 10
	}
	policy := c.Fetch.withDefaults()
	rng := newLockedRand(policy.JitterSeed)
	rep := &Report{ErrorClasses: make(map[string]int)}

	// Recrawl bookkeeping: which recorded URLs were revisited this cycle,
	// and how the rest failed — the inputs to the vanished classification.
	var seen map[string]bool
	var failedClass map[string]string
	if state != nil {
		seen = make(map[string]bool)
		failedClass = make(map[string]string)
	}

	seedURL, err := url.Parse(seed)
	if err != nil {
		rep.Wall = time.Since(start)
		rep.Record(c.Tracer)
		return rep, fmt.Errorf("crawler: bad seed: %w", err)
	}

	visited := map[string]bool{seedURL.String(): true}
	frontier := []string{seedURL.String()}

	// One fixed worker pool serves the whole crawl (the ConvertAll
	// pattern): a 10k-URL level costs Workers goroutines, not 10k.
	jobs := make(chan fetchJob)
	defer close(jobs)
	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				*j.res = policy.fetch(ctx, client, j.url, rng, j.cond)
				j.wg.Done()
			}
		}()
	}
	// Windows bound how many URLs are in flight between budget checks, so
	// the page cap and error budget are enforced with tight granularity.
	window := workers * 4
	if window < 8 {
		window = 8
	}

	// Emission is deferred by one window: a window's pages are handed to
	// emit only after the next window's first wave of requests is on the
	// wire, so a synchronous consumer (one converting each page) does its
	// CPU work while the crawler is waiting on the network, not between a
	// window finishing and the next one being dispatched.
	// Emission order is unchanged — pages still leave in fetch order — and
	// the buffer never holds more than one window of pages.
	var pending []Page
	flush := func() {
		for _, p := range pending {
			emit(p)
		}
		pending = pending[:0]
	}

	stop := false
	for depth := 0; depth <= maxDepth && len(frontier) > 0 && !stop; depth++ {
		var next []string
		// Fetch the level in budget-sized windows: failed fetches do not
		// consume the page budget, so the next window picks up the URLs a
		// naive pre-truncation would have dropped.
		for len(frontier) > 0 && !stop {
			if ctx.Err() != nil {
				rep.Canceled = true
				stop = true
				break
			}
			budget := maxPages - rep.Fetched
			if budget <= 0 {
				stop = true
				break
			}
			if c.MaxFailures > 0 && rep.Failed >= c.MaxFailures {
				rep.BudgetExhausted = true
				stop = true
				break
			}
			take := budget
			if take > len(frontier) {
				take = len(frontier)
			}
			if take > window {
				take = window
			}
			batch := frontier[:take]
			frontier = frontier[take:]
			results := make([]fetchResult, len(batch))
			var wwg sync.WaitGroup
			wwg.Add(len(batch))
			for i, u := range batch {
				var cond condValidators
				if state != nil {
					if rec := state.Pages[u]; rec != nil {
						cond = condValidators{etag: rec.ETag, lastModified: rec.LastModified}
					}
				}
				jobs <- fetchJob{res: &results[i], url: u, cond: cond, wg: &wwg}
				if i == workers-1 {
					// The first wave of this window is in flight; deliver
					// the previous window's pages while it fetches. Later
					// sends block until a worker frees up, which paces the
					// rest of the window anyway.
					flush()
				}
			}
			flush()
			wwg.Wait()
			for _, res := range results {
				rep.Retried += res.attempts - 1
				if res.err != nil {
					if res.class == ClassCanceled {
						rep.Canceled = true
						rep.Skipped++
						delete(visited, res.url)
						continue
					}
					rep.Failed++
					rep.ErrorClasses[res.class]++
					rep.Errors = append(rep.Errors, FetchError{
						URL: res.url, Class: res.class,
						Attempts: res.attempts, Err: res.err.Error()})
					if failedClass != nil {
						failedClass[res.url] = res.class
					}
					continue
				}
				if res.notModified {
					// Validators are only sent for recorded pages, so the
					// record exists; the cached copy is current. The filter
					// never sees a body that was not transferred — the
					// recorded verdict stands.
					rec := state.Pages[res.url]
					rep.NotModified++
					seen[res.url] = true
					pending = append(pending, Page{URL: res.url, OnTopic: rec.OnTopic,
						Truncated: rec.Truncated, Change: ChangeUnchanged})
					for _, u := range rec.Links {
						if !visited[u] {
							visited[u] = true
							next = append(next, u)
						}
					}
					continue
				}
				rep.Fetched++
				rep.Bytes += res.bytes
				if res.truncated {
					rep.Truncated++
				}
				p := Page{URL: res.url, HTML: res.body, Truncated: res.truncated}
				if c.Filter != nil {
					p.OnTopic = c.Filter(res.url, res.body)
				} else {
					p.OnTopic = true
				}
				var links []string
				if base, err := url.Parse(res.url); err == nil {
					links = resolveLinks(base, seedURL, ExtractLinks(res.body))
				}
				if state != nil {
					sum := sha256.Sum256([]byte(res.body))
					hash := hex.EncodeToString(sum[:])
					seen[res.url] = true
					if rec := state.Pages[res.url]; rec == nil {
						p.Change = ChangeNew
					} else if rec.Hash == hash {
						// The server refetched (no validators, or it ignored
						// them) but the content is identical: still
						// unchanged, and the caller's copy is current.
						p.Change = ChangeUnchanged
						p.HTML = ""
					} else {
						p.Change = ChangeChanged
					}
					state.Pages[res.url] = &PageRecord{URL: res.url,
						ETag: res.etag, LastModified: res.lastModified,
						Hash: hash, OnTopic: p.OnTopic,
						Truncated: res.truncated, Links: links}
				}
				pending = append(pending, p)
				for _, u := range links {
					if !visited[u] {
						visited[u] = true
						next = append(next, u)
					}
				}
			}
		}
		// URLs left in the frontier were never fetched; un-mark them so
		// they are dropped, not silently "visited", and account for them.
		for _, u := range frontier {
			delete(visited, u)
		}
		rep.Skipped += len(frontier)
		sort.Strings(next)
		frontier = next
	}
	// The next level that was never attempted (depth cap or early stop).
	rep.Skipped += len(frontier)
	// Deliver the last window's pages; every successfully fetched page is
	// emitted even when the crawl stopped early.
	flush()
	// Vanished detection runs only when the crawl ran to completion: a
	// canceled, budget-stopped or cap-truncated crawl cannot distinguish "no
	// longer reachable" from "never reached this cycle", and must not retire
	// anything. Transient failures keep their records (the stale copy keeps
	// being served); only a permanent http-4xx, a page no index links to
	// anymore, or a page unreachable from the seed retires a record.
	if state != nil && !rep.Canceled && !rep.BudgetExhausted && rep.Skipped == 0 {
		var gone []string
		for u := range state.Pages {
			if seen[u] {
				continue
			}
			if class, ok := failedClass[u]; ok && class != ClassHTTP4xx {
				continue
			}
			gone = append(gone, u)
		}
		sort.Strings(gone)
		for _, u := range gone {
			delete(state.Pages, u)
			rep.Vanished++
			emit(Page{URL: u, Change: ChangeVanished})
		}
	}
	rep.Wall = time.Since(start)
	rep.Record(c.Tracer)
	if rep.Canceled {
		return rep, ctx.Err()
	}
	return rep, nil
}

// fetchJob is one unit of work for the crawl's fixed worker pool.
type fetchJob struct {
	res  *fetchResult
	url  string
	cond condValidators
	wg   *sync.WaitGroup
}

// resolveLinks resolves a page's hrefs against its own URL and keeps the
// same-site ones (the topical crawler never leaves the seed's host), in
// document order, deduplicated. The result both drives the breadth-first
// frontier and is recorded per page so a 304'd index page can still expand
// the frontier on the next cycle.
func resolveLinks(base, seedURL *url.URL, hrefs []string) []string {
	var out []string
	dedup := make(map[string]bool, len(hrefs))
	for _, link := range hrefs {
		ref, err := url.Parse(link)
		if err != nil {
			continue
		}
		abs := base.ResolveReference(ref)
		if abs.Host != seedURL.Host || abs.Scheme != seedURL.Scheme {
			continue
		}
		abs.Fragment = ""
		u := abs.String()
		if !dedup[u] {
			dedup[u] = true
			out = append(out, u)
		}
	}
	return out
}

// ExtractLinks returns the href values of anchor elements in document order.
func ExtractLinks(html string) []string {
	doc := htmlparse.Parse(html)
	var out []string
	doc.Walk(func(n *dom.Node) bool {
		if n.Type == dom.ElementNode && n.Tag == "a" {
			if href, ok := n.Attr("href"); ok && href != "" {
				out = append(out, href)
			}
		}
		return true
	})
	return out
}

// ResumeFilter returns a topical filter that scores a page by occurrences of
// resume-section keywords and accepts it at minHits or more — the "looked
// like resumes" heuristic of the paper's crawler.
func ResumeFilter(minHits int) func(string, string) bool {
	keywords := []string{
		"education", "experience", "employment", "objective", "skills",
		"references", "resume", "curriculum vitae", "gpa", "coursework",
		"university", "college", "institute", "b.s.", "m.s.", "b.a.",
		"mba", "ph.d.", "engineer", "qualifications",
	}
	return func(_, html string) bool {
		low := strings.ToLower(html)
		hits := 0
		for _, k := range keywords {
			if strings.Contains(low, k) {
				hits++
			}
		}
		return hits >= minHits
	}
}
