package watch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"webrev/internal/corpus"
	"webrev/internal/crawler"
	"webrev/internal/faultinject"
	"webrev/internal/obs"
	"webrev/internal/schema"
)

// docFiles lists the non-empty doc-* files in a state directory.
func docFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "doc-") && info.Size() > 0 {
			out = append(out, e.Name())
		}
	}
	return out
}

// readManifest decodes a state directory's state.json into generic JSON.
func readManifest(t *testing.T, dir string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// interruptedSave makes a watcher's second cycle stop after its document
// writes and before its manifest rename (state.json.tmp is a directory,
// so the manifest write fails), optionally reverts the mutated pages, and
// requires the next cycle of a restarted watcher to equal a cold build of
// the live site.
func interruptedSave(t *testing.T, revert bool) {
	site, srv := newSite(t, 10, 21)
	dir := t.TempDir()
	w := newWatcher(t, srv, Options{StateDir: dir})
	if _, err := w.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	orig := make(map[string]string)
	for _, path := range site.Paths() {
		orig[path], _ = site.Page(path)
	}
	tm := faultinject.NewTemplate(faultinject.TemplateConfig{Seed: 5, Rate: 0.5})
	mutated := mutatePages(t, site, tm)
	if len(mutated) == 0 {
		t.Fatal("mutator selected no pages")
	}
	tmp := filepath.Join(dir, stateFileName+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Cycle(context.Background()); err == nil || !strings.Contains(err.Error(), "state write") {
		t.Fatalf("cycle with a blocked manifest write: err = %v, want a state write error", err)
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if revert {
		for _, path := range mutated {
			site.SetPage(path, orig[path])
		}
	}

	restarted := newWatcher(t, srv, Options{StateDir: dir})
	if restarted.Cycles() != 1 {
		t.Fatalf("restarted watcher resumed at cycle %d, want 1", restarted.Cycles())
	}
	if n := len(docFiles(t, dir)); n != restarted.Docs() {
		t.Fatalf("after load the state directory holds %d non-empty doc files for %d live documents", n, restarted.Docs())
	}
	res, err := restarted.Cycle(context.Background())
	if err != nil {
		t.Fatalf("cycle after an interrupted save: %v", err)
	}
	if got, want := renderRepo(res.Repo), renderRepo(coldRepo(t, restarted, site, srv.URL)); got != want {
		t.Fatal("cycle after an interrupted save diverges from a cold build")
	}
}

// TestWatchInterruptedSaveResumes: a save interrupted before its manifest
// rename leaves the previous cycle's state intact, so the restarted
// watcher's next cycle picks up the mutated pages and equals a cold build.
func TestWatchInterruptedSaveResumes(t *testing.T) { interruptedSave(t, false) }

// TestWatchInterruptedSaveReverted: the same interruption, after which the
// site reverts the mutated pages. The pages revalidate as unchanged, so the
// restarted watcher must still hold the documents the committed manifest
// names, not the ones the interrupted save wrote.
func TestWatchInterruptedSaveReverted(t *testing.T) { interruptedSave(t, true) }

// TestWatchStateV2Refolds: a version-2 state directory carrying a
// deliberately wrong accumulator loads by refolding its documents. Its
// next cycle is byte-identical to a continuously running watcher's, and
// the rewritten manifest is version 3 with no accumulator.
func TestWatchStateV2Refolds(t *testing.T) {
	siteA, srvA := newSite(t, 8, 19)
	siteB, srvB := newSite(t, 8, 19)
	dir := t.TempDir()
	cont := newWatcher(t, srvA, Options{})
	w := newWatcher(t, srvB, Options{StateDir: dir})
	for _, x := range []*Watcher{cont, w} {
		if _, err := x.Cycle(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	// Rewrite the directory as version 2: slot-0 file names and an
	// accumulator that folds the right number of documents, all of them a
	// copy of one document's statistics.
	m := readManifest(t, dir)
	m["version"] = 2
	wrong := schema.NewDeltaAccumulator(0)
	ents := w.entries()
	for _, e := range ents {
		wrong.Add(e.idx, w.opt.Pipeline.ExtractPaths(ents[0].doc))
	}
	m["acc"] = wrong
	for _, d := range m["docs"].([]any) {
		d := d.(map[string]any)
		idx, slot := int(d["idx"].(float64)), d["slot"].(float64)
		if err := os.Rename(filepath.Join(dir, docFile(idx, int(slot))), filepath.Join(dir, docFile(idx, 0))); err != nil {
			t.Fatal(err)
		}
		delete(d, "slot")
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, stateFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, site := range []*crawler.Site{siteA, siteB} {
		mutatePages(t, site, faultinject.NewTemplate(faultinject.TemplateConfig{Seed: 3, Rate: 0.5}))
	}
	resA, err := cont.Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := newWatcher(t, srvB, Options{StateDir: dir}).Cycle(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	normalize := func(s, base string) string { return strings.ReplaceAll(s, base, "SITE") }
	if got, want := normalize(renderRepo(resB.Repo), srvB.URL), normalize(renderRepo(resA.Repo), srvA.URL); got != want {
		t.Fatal("cycle after a v2 load diverges from the continuous watcher")
	}
	ja, _ := json.Marshal(resA.Drift)
	jb, _ := json.Marshal(resB.Drift)
	if normalize(string(jb), strings.TrimPrefix(srvB.URL, "http://")) !=
		normalize(string(ja), strings.TrimPrefix(srvA.URL, "http://")) {
		t.Fatalf("drift reports diverge:\n%s\n%s", ja, jb)
	}
	m = readManifest(t, dir)
	if _, ok := m["acc"]; ok || m["version"] != float64(StateVersion) {
		t.Fatalf("rewritten manifest: version %v, acc present %v; want version %d, no acc", m["version"], ok, StateVersion)
	}
}

// TestWatchRefoldMatchesContinuous: after several delta cycles with page
// additions and removals, a watcher restarted from the state directory
// holds an accumulator whose encoding equals the continuous watcher's.
func TestWatchRefoldMatchesContinuous(t *testing.T) {
	site, srv := newSite(t, 10, 23)
	dir := t.TempDir()
	w := newWatcher(t, srv, Options{StateDir: dir})
	extra := corpus.New(corpus.Options{Seed: 92}).Corpus(1)
	for cycle := 1; cycle <= 5; cycle++ {
		if cycle > 1 {
			mutatePages(t, site, faultinject.NewTemplate(faultinject.TemplateConfig{Seed: int64(cycle), Rate: 0.4}))
		}
		if cycle == 3 {
			site.RemovePage("/resumes/2.html")
			site.SetPage("/resumes/extra.html", extra[0].HTML)
			linkFromRoot(t, site, "/resumes/extra.html")
		}
		if _, err := w.Cycle(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	restarted := newWatcher(t, srv, Options{StateDir: dir})
	want, err := json.Marshal(w.acc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(restarted.acc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("refolded accumulator differs from the continuous one:\n%s\n%s", got, want)
	}
}

// TestWatchLoadBadDocument: a live document file that is missing or does
// not decode fails New with an error naming the document's index and URL,
// and leaves every file of the state directory as it was.
func TestWatchLoadBadDocument(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"missing", os.Remove},
		{"undecodable", func(path string) error { return os.WriteFile(path, []byte("not xml <"), 0o644) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := newSite(t, 6, 29)
			dir := t.TempDir()
			w := newWatcher(t, srv, Options{StateDir: dir})
			if _, err := w.Cycle(context.Background()); err != nil {
				t.Fatal(err)
			}
			// An unreferenced file a successful load would remove.
			if err := os.WriteFile(filepath.Join(dir, docFile(999, 9)), []byte("<resume/>"), 0o644); err != nil {
				t.Fatal(err)
			}
			e := w.entries()[1]
			if err := tc.spoil(filepath.Join(dir, docFile(e.idx, e.slot))); err != nil {
				t.Fatal(err)
			}
			snapshot := func() map[string]string {
				files := make(map[string]string)
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, ent := range ents {
					data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
					if err != nil {
						t.Fatal(err)
					}
					files[ent.Name()] = string(data)
				}
				return files
			}
			before := snapshot()
			_, err := New(Options{Pipeline: testPipeline(t), Crawler: &crawler.Crawler{}, Seed: srv.URL + "/", StateDir: dir})
			if err == nil {
				t.Fatal("New loaded a state directory with a bad document file")
			}
			for _, want := range []string{fmt.Sprintf("doc %d ", e.idx), e.doc.Source} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if after := snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatal("failed load changed the state directory")
			}
		})
	}
}

// TestWatchCleanupError: a leftover doc-* entry that cannot be removed
// fails the load instead of being skipped.
func TestWatchCleanupError(t *testing.T) {
	_, srv := newSite(t, 6, 37)
	dir := t.TempDir()
	w := newWatcher(t, srv, Options{StateDir: dir})
	if _, err := w.Cycle(context.Background()); err != nil {
		t.Fatal(err)
	}
	stuck := filepath.Join(dir, docFile(999, 9))
	if err := os.MkdirAll(filepath.Join(stuck, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{Pipeline: testPipeline(t), Crawler: &crawler.Crawler{}, Seed: srv.URL + "/", StateDir: dir})
	if err == nil || !strings.Contains(err.Error(), "state cleanup") {
		t.Fatalf("load over an unremovable leftover: err = %v, want a state cleanup error", err)
	}
}

// TestWatchStateObservability: every save runs under a watch.save span,
// and a load under a watch.load span that counts its refolded documents in
// watch.refolded.
func TestWatchStateObservability(t *testing.T) {
	_, srv := newSite(t, 6, 31)
	dir := t.TempDir()
	col := obs.NewCollector()
	w := newWatcher(t, srv, Options{StateDir: dir, Tracer: col})
	if err := w.Run(context.Background(), 2, 0, nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := col.Stage(obs.StageWatchSave); st.Count != 2 {
		t.Fatalf("%s recorded %d times over 2 cycles", obs.StageWatchSave, st.Count)
	}
	if got := col.Counter(obs.CtrWatchRefolded); got != 0 {
		t.Fatalf("fresh start refolded %d documents", got)
	}

	col = obs.NewCollector()
	restarted := newWatcher(t, srv, Options{StateDir: dir, Tracer: col})
	if st, _ := col.Stage(obs.StageWatchLoad); st.Count != 1 {
		t.Fatalf("%s recorded %d times for one load", obs.StageWatchLoad, st.Count)
	}
	if got := col.Counter(obs.CtrWatchRefolded); got != int64(restarted.Docs()) || got == 0 {
		t.Fatalf("%s = %d, want the %d live documents", obs.CtrWatchRefolded, got, restarted.Docs())
	}
}
