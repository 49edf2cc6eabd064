package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webrev/internal/concept"
	"webrev/internal/core"
	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/pathindex"
	"webrev/internal/query"
	"webrev/internal/repository"
	"webrev/internal/serve"
	"webrev/internal/xmlout"
)

// runServe is the serve-disk workload: open the disk repository the
// untimed preparation built, then serve a seeded, Zipf-skewed open-loop
// request mix over loopback HTTP at a reference rate and at capacity.
func runServe(cfg *config, out *outcome) error {
	dir, err := prepServeRepo(cfg)
	if err != nil {
		return err
	}
	resetPeakRSS(true)
	if cfg.trace {
		return traceServe(cfg, dir, out)
	}

	var setups []float64
	var d *daemon
	for r := 0; r < cfg.sizes.SetupRepeats; r++ {
		if d != nil {
			if err := d.close(); err != nil {
				return err
			}
		}
		if d, err = openDaemon(dir, nil); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.close()

	m, err := newMix(d.srv, cfg.seed, cfg.sizes)
	if err != nil {
		return err
	}
	sz := cfg.sizes
	lg := newLoadGen(d.base)
	defer lg.close()
	total := cfg.seconds.Seconds()
	capDur := time.Duration(0.5 * total / phaseWindows * float64(time.Second))
	for i := 0; i < warmWindows; i++ {
		d.capacity(lg, m, int64(2+i), capDur, cfg.wrongAnswer, out)
	}

	// The measured part runs as phaseWindows rounds of a reference window
	// and a capacity window, so that both sample the whole run and a slow
	// spell of the host lands on a share of each. p50_ms and tail_ms are
	// the medians, over the reference windows that ran with the least host
	// steal, of each window's p50 and tail: sustained figures that one
	// stall cannot move on its own. throughput_per_s is the median rate of
	// the capacity windows that ran with the least steal.
	ref := m.requests(int(sz.RefRate*0.3*total), 1)
	var p50s, tails, lat, rates []float64
	var steals, capSteals []float64
	w := len(ref) / phaseWindows
	for i := 0; i < phaseWindows; i++ {
		reqs := ref[i*w : (i+1)*w]
		s0, t0 := stealTicks(), time.Now()
		res := lg.run(reqs, sz.RefRate, checkEvery, time.Time{})
		steals = append(steals, stealShare(stealTicks()-s0, time.Since(t0)))
		d.tally(reqs, res, cfg.wrongAnswer, out)
		p50s = append(p50s, median(res.lat))
		tails = append(tails, tail(res.lat))
		lat = append(lat, res.lat...)

		rate, steal := d.capacity(lg, m, int64(2+warmWindows+i), capDur, cfg.wrongAnswer, out)
		rates = append(rates, rate)
		capSteals = append(capSteals, steal)
	}
	kept, capKept := quiet(steals), quiet(capSteals)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	out.values["setup_s"] = median(setups)
	out.values["throughput_per_s"] = median(pick(rates, capKept))
	out.values["p50_ms"] = median(pick(p50s, kept))
	out.values["tail_ms"] = median(pick(tails, kept))
	out.values["peak_rss_mb"] = peak
	out.values["disk_bytes_per_doc"] = float64(d.store.BytesOnDisk()) / float64(d.store.Len())
	out.values["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(os.Stderr, "serve-disk: reference %.0f req/s over %d requests: p50 %.3f ms, p99 %.3f ms (%d quiet windows: %.3f, %.3f)\n",
		sz.RefRate, len(lat), median(lat), quantile(lat, 0.99), len(kept), out.values["p50_ms"], out.values["tail_ms"])
	fmt.Fprintf(os.Stderr, "serve-disk: capacity %.0f req/s in %d windows (%d quiet: %.0f)\n",
		rates, len(rates), len(capKept), out.values["throughput_per_s"])
	return nil
}

// capCeiling bounds the requests drawn for a capacity window, in requests
// per second of the window: about twice what the server serves today. A
// window ends at its deadline or when its requests run out, whichever
// comes first, and its rate is right either way.
const capCeiling = 12000

// warmWindows is how many capacity windows warm the server's caches and
// heap before serve-disk measures; they take 20% of a run.
const warmWindows = 3

// capacity runs one capacity window of dur, drawing its requests as phase
// of the mix, and returns its rate and the host's steal share during it.
// Every worker sends its next request as soon as its last answer is in, as
// the open-loop generator does once it is offered more than the server can
// take, so the rate, answered requests over the window's wall, is the
// highest the server sustains: offered any more, an open-loop backlog
// grows without bound. A rate is a mean over thousands of requests, where
// a latency-limited knee rests on a p99 of a short slice and moves with
// every garbage collection that lands in it. The garbage of drawing the
// requests is collected before the window starts.
func (d *daemon) capacity(lg *loadGen, m *mix, phase int64, dur time.Duration, wrong bool, out *outcome) (float64, float64) {
	reqs := m.requests(int(capCeiling*dur.Seconds()), phase)
	runtime.GC()
	s0 := stealTicks()
	t0 := time.Now()
	res := lg.run(reqs, 0, checkEvery, t0.Add(dur))
	wall := time.Since(t0)
	steal := stealShare(stealTicks()-s0, wall)
	d.tally(reqs[:len(res.status)], res, wrong, out)
	return float64(len(res.status)) / wall.Seconds(), steal
}

// serveCorpusSeed seeds the served corpus, the same in every run; the run's
// seed draws the request mix. The schema mined from a generated corpus
// depends on its seed: some seeds put a few education paths over the
// mining thresholds, which gives 41 label paths and 10% more index
// entries instead of 36, and every scan costs that much more. A benchmark
// of serving should measure the server, not which schema the miner chose.
const serveCorpusSeed = 1

// prepServeRepo builds the repository serve-disk opens, untimed: a
// generated corpus through the same sharded disk build as build-disk.
func prepServeRepo(cfg *config) (string, error) {
	corpusDir := filepath.Join(cfg.work, "corpus")
	n := cfg.sizes.ServeDocs
	if err := writeCorpus(corpusDir, n, serveCorpusSeed, concept.ResumeSet()); err != nil {
		return "", err
	}
	p, err := newPipeline(nil)
	if err != nil {
		return "", err
	}
	buildDir := filepath.Join(cfg.work, "repo")
	res, err := p.BuildShardedFrom(context.Background(), n, corpusSource(corpusDir), core.ShardOptions{
		Shards: buildShards, Dir: buildDir, CheckpointEvery: cfg.sizes.CheckpointEvery,
	})
	if err != nil {
		return "", err
	}
	if err := res.Repo.Store().Close(); err != nil {
		return "", err
	}
	return filepath.Join(buildDir, "final"), os.RemoveAll(corpusDir)
}

// daemon is the served repository: the disk store, the server over it and
// its loopback listener.
type daemon struct {
	store *repository.DiskStore
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	base  string
	// setup is open-to-ready: LoadDisk → NewServer → /readyz 200.
	setup time.Duration
}

// openDaemon opens the repository in dir and serves it on a loopback port,
// returning once /readyz answers 200.
func openDaemon(dir string, tr obs.Tracer) (*daemon, error) {
	t0 := time.Now()
	repo, err := repository.LoadDisk(dir, repository.DiskOptions{Tracer: tr})
	if err != nil {
		return nil, err
	}
	store, ok := repo.Store().(*repository.DiskStore)
	if !ok {
		return nil, errors.New("LoadDisk returned a store that is not a DiskStore")
	}
	srv := serve.NewServer(repo, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	d := &daemon{store: store, srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan error, 1),
		base: "http://" + ln.Addr().String()}
	go func() { d.done <- d.hs.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > time.Minute {
			d.close()
			return nil, fmt.Errorf("server not ready after a minute: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setup = time.Since(t0)
	return d, nil
}

// close stops the server, waits for it, and closes the store.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// request is one generated request.
type request struct {
	endpoint string // query, count, concept, doc, paths or dtd
	path     string // URL path and query string
	expr     string // query expression (query and count)
	doc      int    // document index (doc)
}

// mix draws the seeded request mix. Queries, concept lookups and
// documents each follow a Zipf popularity over a shuffled universe.
type mix struct {
	seed     int64
	queries  []string
	concepts [][2]string // concept name, value word
	docs     []int
}

// newMix derives the query universe from the served index: every label
// path, anchored and //label queries with value predicates drawn from the
// stored values. It must exceed the server's 4096-entry result cache.
// Queries are grouped by shape and label, and popularity ranks take the
// groups in turn, so the cost of the popular head is the same whatever
// the seed; the seed picks the values within each group.
func newMix(srv *serve.Server, seed int64, sz sizes) (*mix, error) {
	fr := srv.Snapshot().Frozen()
	r := rand.New(rand.NewSource(seed))
	queries := newBuckets()
	concepts := newBuckets()
	vals := make(map[string][]string) // label → whole vals
	for _, p := range fr.Paths() {
		label := p[strings.LastIndex(p, "/")+1:]
		queries.add("/", "/"+p)
		seen := map[string]bool{}
		for _, ref := range fr.Lookup(p) {
			v := ref.Node.Val()
			if plainValue(v) && len(vals[label]) < 512 && !contains(vals[label], v) {
				vals[label] = append(vals[label], v)
			}
			for _, w := range strings.FieldsFunc(v, func(r rune) bool { return !isWordRune(r) }) {
				if len(w) < 3 || seen[w] || len(seen) >= 400 {
					continue
				}
				seen[w] = true
				queries.add("/~"+p, "/"+p+`[@val~"`+w+`"]`)
				queries.add("//~"+label, "//"+label+`[@val~"`+w+`"]`)
				if label != rootName {
					concepts.add(label, label+"\x00"+w)
				}
			}
		}
	}
	for l, vs := range vals {
		for _, v := range vs {
			queries.add("//="+l, "//"+l+`[@val="`+v+`"]`)
		}
	}
	universe := queries.interleave(r)
	if len(universe) > sz.ServeQueries {
		universe = universe[:sz.ServeQueries]
	}
	if len(universe) < sz.MinUniverse {
		return nil, fmt.Errorf("query universe of %d queries is below the required %d", len(universe), sz.MinUniverse)
	}
	m := &mix{seed: seed, queries: universe, docs: r.Perm(srv.Snapshot().Docs())}
	for _, c := range concepts.interleave(r) {
		name, w, _ := strings.Cut(c, "\x00")
		m.concepts = append(m.concepts, [2]string{name, w})
	}
	if len(m.concepts) == 0 {
		return nil, errors.New("no concept values to look up")
	}
	return m, nil
}

// buckets groups distinct strings by key.
type buckets struct {
	seen map[string]bool
	by   map[string][]string
}

func newBuckets() *buckets { return &buckets{seen: map[string]bool{}, by: map[string][]string{}} }

func (b *buckets) add(key, s string) {
	if !b.seen[s] {
		b.seen[s] = true
		b.by[key] = append(b.by[key], s)
	}
}

// interleave shuffles each bucket and deals them out in turn, buckets in
// key order: the i-th string of every bucket precedes the (i+1)-th of any.
func (b *buckets) interleave(r *rand.Rand) []string {
	keys := make([]string, 0, len(b.by))
	for k := range b.by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for _, k := range keys {
		xs := b.by[k]
		r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	}
	for round := 0; len(out) < len(b.seen); round++ {
		for _, k := range keys {
			if round < len(b.by[k]) {
				out = append(out, b.by[k][round])
			}
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func isWordRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
}

// plainValue reports whether v can be quoted in a query literal without
// escapes.
func plainValue(v string) bool {
	if v == "" || len(v) > 80 {
		return false
	}
	for _, r := range v {
		if r == '"' || r == '\\' || r < ' ' {
			return false
		}
	}
	return true
}

// requests draws n requests for one phase; phase keys the draw so each
// phase of a run sees its own sequence. The endpoint shares and the Zipf
// skews are assumptions, not measured traffic (README.md says why).
func (m *mix) requests(n int, phase int64) []request {
	r := rand.New(rand.NewSource(m.seed*1000003 + phase))
	zq := rand.NewZipf(r, 1.1, 16, uint64(len(m.queries)-1))
	zc := rand.NewZipf(r, 1.1, 16, uint64(len(m.concepts)-1))
	zd := rand.NewZipf(r, 1.1, 1, uint64(len(m.docs)-1))
	out := make([]request, n)
	for k := range out {
		x := r.Intn(1000)
		switch {
		case x < 400:
			q := m.queries[zq.Uint64()]
			out[k] = request{endpoint: "query", expr: q, path: "/api/query?" + url.Values{"q": {q}, "limit": {"10"}}.Encode()}
		case x < 700:
			q := m.queries[zq.Uint64()]
			out[k] = request{endpoint: "count", expr: q, path: "/api/count?" + url.Values{"q": {q}}.Encode()}
		case x < 800:
			c := m.concepts[zc.Uint64()]
			out[k] = request{endpoint: "concept", path: "/api/concept?" + url.Values{"name": {c[0]}, "val": {c[1]}, "contains": {"1"}}.Encode()}
		case x < 990:
			i := m.docs[zd.Uint64()]
			out[k] = request{endpoint: "doc", doc: i, path: "/api/doc?i=" + strconv.Itoa(i)}
		case x < 995:
			out[k] = request{endpoint: "paths", path: "/api/paths"}
		default:
			out[k] = request{endpoint: "dtd", path: "/api/dtd"}
		}
	}
	return out
}

// loadGen is the open-loop load generator: requests are due on a fixed
// schedule whatever the server does, and each is timed from when it was
// due, so time a request spends waiting behind slow answers counts. To
// measure capacity it sends back to back instead. It uses one keep-alive
// connection per worker and at most one worker per CPU.
type loadGen struct {
	base    string
	clients []*http.Client
}

func newLoadGen(base string) *loadGen {
	lg := &loadGen{base: base}
	for w := 0; w < runtime.NumCPU(); w++ {
		lg.clients = append(lg.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return lg
}

func (lg *loadGen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// phaseResult holds one phase's per-request measurements.
type phaseResult struct {
	lat    []float64 // ms from the scheduled send to the last response byte
	sent   []float64 // ms from the actual send to the last response byte
	late   []float64 // ms the send started after its scheduled time, whatever the cause
	status []int     // 0 for a transport error
	bodies map[int][]byte
}

// phaseWindows is how many rounds of a reference window and a capacity
// window the measured part of serve-disk runs as.
const phaseWindows = 8

// checkEvery makes every 16th answer of a measured phase a checked one.
const checkEvery = 16

// run sends reqs at rate requests per second, or back to back when rate is
// 0, and keeps the body of every keepEvery-th answer (none when keepEvery
// is 0). With a non-zero until, no request is sent after it and the result
// holds only the requests sent, which are reqs[:len(res.status)]: a worker
// looks at the clock before it takes the next index, so every index taken
// is answered.
func (lg *loadGen) run(reqs []request, rate float64, keepEvery int, until time.Time) *phaseResult {
	n := len(reqs)
	res := &phaseResult{lat: make([]float64, n), sent: make([]float64, n), late: make([]float64, n),
		status: make([]int, n), bodies: make(map[int][]byte)}
	var mu sync.Mutex
	var next atomic.Int64
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for _, c := range lg.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				if !until.IsZero() && time.Now().After(until) {
					return
				}
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = t0.Add(time.Duration(k) * interval)
					waitUntil(due)
				}
				sent := time.Now()
				status, body := lg.get(c, reqs[k].path)
				done := time.Now()
				res.lat[k] = ms(done.Sub(due))
				res.sent[k] = ms(done.Sub(sent))
				res.late[k] = ms(sent.Sub(due))
				res.status[k] = status
				if keepEvery > 0 && k%keepEvery == 0 {
					mu.Lock()
					res.bodies[k] = body
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	if sent := int(min(next.Load(), int64(n))); sent < n {
		res.lat, res.sent, res.late, res.status = res.lat[:sent], res.sent[:sent], res.late[:sent], res.status[:sent]
	}
	return res
}

// waitUntil returns at t. An idle Go process parks its threads and its
// timers fire up to a millisecond late, which would read as server
// latency, so the last stretch before t yields in a loop instead of
// sleeping; the generator's remaining lateness is reported on its own.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// get fetches one path; status 0 means a transport error.
func (lg *loadGen) get(c *http.Client, path string) (int, []byte) {
	resp, err := c.Get(lg.base + path)
	if err != nil {
		return 0, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

// tally counts a phase's requests and failures into out: non-2xx answers,
// transport errors, and sampled /api/count and /api/doc answers that
// disagree with the index and the store. It returns the phase's failures.
func (d *daemon) tally(reqs []request, res *phaseResult, wrong bool, out *outcome) int {
	bad := 0
	for _, st := range res.status {
		if st < 200 || st > 299 {
			bad++
		}
	}
	for k, body := range res.bodies {
		if res.status[k] != http.StatusOK {
			continue
		}
		if ok, why := d.verify(reqs[k], body, wrong); !ok {
			bad++
			out.check(false, "%s: %s", reqs[k].path, why)
		}
	}
	out.attempted += int64(len(reqs))
	out.failed += int64(bad)
	return bad
}

// verify checks one sampled answer against the same snapshot: a count must
// equal query.Count over the frozen index, a document must be the store's
// bytes.
func (d *daemon) verify(r request, body []byte, wrong bool) (bool, string) {
	switch r.endpoint {
	case "count":
		q, err := query.Compile(r.expr)
		if err != nil {
			return false, err.Error()
		}
		want := q.Count(d.srv.Snapshot().Frozen())
		if wrong {
			want++
		}
		var got serve.CountResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return false, err.Error()
		}
		if got.Count != want {
			return false, fmt.Sprintf("count %d, index says %d", got.Count, want)
		}
	case "doc":
		want, err := d.store.XML(r.doc)
		if err != nil {
			return false, err.Error()
		}
		if wrong {
			want = append(want, ' ')
		}
		if string(body) != string(want) {
			return false, "document bytes differ from the store's"
		}
	}
	return true, ""
}

// traceServe measures the serving layers one by one: the open and index
// build replayed through the repository and path-index functions, a
// loopback pass at the reference rate, the same requests replayed through
// the handler, and their queries through the query engine.
func traceServe(cfg *config, dir string, out *outcome) error {
	rec := newRecorder()
	lg := rec.log()
	sz := cfg.sizes
	v := out.values

	// Set-up replay: open, read and decode every document, build and
	// freeze the path index.
	var repo *repository.Repository
	var err error
	t0 := time.Now()
	lg.timed("repository.open", -1, 0, func() { repo, err = repository.LoadDisk(dir, repository.DiskOptions{}) })
	if err != nil {
		return err
	}
	st := repo.Store()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	docs := make([]*dom.Node, st.Len())
	for i := range docs {
		var raw []byte
		lg.timed("repository.read", -1, int64(i), func() { raw, err = st.XML(i) })
		if err != nil {
			break
		}
		lg.timed("repository.decode", -1, int64(i), func() { docs[i], err = xmlout.UnmarshalElement(string(raw)) })
		if err != nil {
			break
		}
	}
	if err != nil {
		st.Close()
		return err
	}
	var ix *pathindex.Index
	lg.timed("pathindex.build", -1, 0, func() { ix = pathindex.Build(docs) })
	var fr *pathindex.Frozen
	lg.timed("pathindex.freeze", -1, 0, func() { fr = ix.Freeze() })
	tracedSetup := time.Since(t0)
	docs, ix = nil, nil
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	v["pathindex.heap_mb"] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	if err := st.Close(); err != nil {
		return err
	}

	counters := obs.NewCollector()
	d, err := openDaemon(dir, counters)
	if err != nil {
		return err
	}
	defer d.close()
	out.check(samePaths(fr, d.srv.Snapshot().Frozen()), "replayed path index differs from the server's")
	runtime.KeepAlive(fr)

	m, err := newMix(d.srv, cfg.seed, sz)
	if err != nil {
		return err
	}
	gen := newLoadGen(d.base)
	defer gen.close()
	total := cfg.seconds.Seconds()
	gen.run(m.requests(int(sz.RefRate*0.1*total), 0), sz.RefRate, 0, time.Time{})

	// Untraced loopback pass, keeping every answer for the replays.
	reqs := m.requests(int(sz.RefRate*0.4*total), 1)
	s0 := d.srv.Stats()
	h0, m0 := counters.Counter(obs.CtrStoreHits), counters.Counter(obs.CtrStoreMisses)
	rt0 := readRuntime()
	res := gen.run(reqs, sz.RefRate, 1, time.Time{})
	rt := rtSample{}.plus(rt0, readRuntime())
	s1 := d.srv.Stats()
	d.tally(reqs, res, cfg.wrongAnswer, out)
	runtimeMetrics(out, rt, float64(len(reqs)))
	hits, misses := counters.Counter(obs.CtrStoreHits)-h0, counters.Counter(obs.CtrStoreMisses)-m0
	v["repository.lru_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["serve.result_cache_hit_ratio"] = ratio(float64(s1.ResultCache.Hits-s0.ResultCache.Hits),
		float64(s1.ResultCache.Hits-s0.ResultCache.Hits+s1.ResultCache.Misses-s0.ResultCache.Misses))
	v["serve.compile_cache_hit_ratio"] = ratio(float64(s1.QueryCache.Hits-s0.QueryCache.Hits),
		float64(s1.QueryCache.Hits-s0.QueryCache.Hits+s1.QueryCache.Misses-s0.QueryCache.Misses))
	v["serve.shed"] = float64(s1.Shed - s0.Shed)
	v["loadgen.late_us_p99"] = 1000 * quantile(res.late, 0.99)

	// Handler replay: the same requests through Handler().ServeHTTP. The
	// result cache is warm from the pass, so cached answers must match the
	// bytes the loopback pass received.
	h := d.srv.Handler()
	byEndpoint := map[string][]float64{}
	var handlerAll []float64
	hl := rec.log()
	for k, r := range reqs {
		w := httptest.NewRecorder()
		req, err := http.NewRequest(http.MethodGet, d.base+r.path, nil)
		if err != nil {
			return err
		}
		i := hl.start("serve."+r.endpoint, -1, int64(k))
		h.ServeHTTP(w, req)
		hl.end(i)
		us := float64(hl.spans[i].End-hl.spans[i].Start) / 1e3
		byEndpoint[r.endpoint] = append(byEndpoint[r.endpoint], us)
		handlerAll = append(handlerAll, us)
		if res.status[k] == http.StatusOK {
			out.check(w.Code == http.StatusOK && w.Body.String() == string(res.bodies[k]),
				"handler replay of %s differs from the loopback answer", r.path)
		}
	}
	for _, e := range []string{"query", "count", "concept", "doc"} {
		v["serve."+e+".handler_us_p50"] = median(byEndpoint[e])
		v["serve."+e+".handler_us_p99"] = quantile(byEndpoint[e], 0.99)
	}
	v["net.roundtrip_overhead_us"] = 1000*median(res.sent) - median(handlerAll)

	// Engine replay: compile and evaluate the pass's queries on the
	// frozen index.
	ql := rec.log()
	frozen := d.srv.Snapshot().Frozen()
	var results, scanned float64
	queries := 0
	for k, r := range reqs {
		if r.expr == "" {
			continue
		}
		var q *query.Query
		ql.timed("query.compile", -1, int64(k), func() { q, err = query.Compile(r.expr) })
		if err != nil {
			return err
		}
		n := 0
		ql.timed("query.eval", -1, int64(k), func() {
			err = q.EachContext(context.Background(), frozen, func(string, pathindex.Ref) bool { n++; return true })
		})
		if err != nil {
			return err
		}
		queries++
		results += float64(n)
		if base, _, ok := strings.Cut(r.expr, "["); ok {
			bq, err := query.Compile(base)
			if err != nil {
				return err
			}
			scanned += float64(bq.Count(frozen))
		} else {
			scanned += float64(n)
		}
	}
	t := rec.layerTotals()
	v["query.compile_ns"] = sumNs(t, "query.compile") / float64(queries)
	v["query.eval_ns"] = sumNs(t, "query.eval") / float64(queries)
	v["query.refs_per_result"] = ratio(scanned, results)
	nd := float64(st.Len())
	v["repository.open_ms"] = sumNs(t, "repository.open") / 1e6
	v["repository.read_ns_per_doc"] = sumNs(t, "repository.read") / nd
	v["repository.decode_ns_per_doc"] = sumNs(t, "repository.decode") / nd
	v["pathindex.build_ms"] = sumNs(t, "pathindex.build") / 1e6
	v["pathindex.freeze_ms"] = sumNs(t, "pathindex.freeze") / 1e6
	v["trace.overhead_ratio"] = tracedSetup.Seconds() / d.setup.Seconds()
	fmt.Fprintf(os.Stderr, "serve-disk trace: %d requests replayed\n", len(reqs))
	return rec.write(cfg.spansOut)
}

// samePaths reports whether two frozen indexes hold the same label paths
// with the same occurrence counts.
func samePaths(a, b *pathindex.Frozen) bool {
	pa, pb := a.Paths(), b.Paths()
	if len(pa) != len(pb) || a.Docs() != b.Docs() {
		return false
	}
	for i, p := range pa {
		if pb[i] != p || len(a.Lookup(p)) != len(b.Lookup(p)) {
			return false
		}
	}
	return true
}
