package watch

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/obs"
	"webrev/internal/repository"
	"webrev/internal/xmlout"
)

// The watch state directory is a state.json manifest plus XML files of the
// live converted documents. The manifest (version 3) holds the crawl
// validators (crawler.CrawlState), the cycle ordinal, the next fresh
// accumulator index, each live document's index, URL and file slot, and the
// previous cycle's derivation (supports, DTD text, per-site conformance)
// that the next drift report diffs against. It holds no statistics: on load
// the delta accumulator is refolded from the documents in index order.
//
// Each document has two file slots, doc-%08d.xml (slot 0, the only name
// versions 1 and 2 used) and doc-%08d-1.xml (slot 1). A save writes a
// changed document into the slot the committed manifest does not
// reference, replaces the manifest atomically, and only then empties the
// superseded slot and removes the files of retired documents. No file the
// committed manifest references is ever overwritten, and load cleans up
// after a save interrupted before its rename the same way. The emptied slot
// is kept rather than removed because the document's next change then
// overwrites a file instead of creating one, which costs several times more.
//
// Versions 1 and 2 load through the same path. Version 1 was the checkpoint
// of a retired streaming build driver (documents named under "source", no
// crawl state, so the first cycle refetches everything and classifies by
// content hash); version 2 also persisted the delta accumulator, which is
// now ignored. The next save writes version 3. The format contract,
// including the version bump policy, is in DESIGN.md ("Versioned
// persistent formats").

// StateVersion is the watch state manifest version this package writes.
const StateVersion = 3

// stateFileName is the manifest filename inside a state directory.
const stateFileName = "state.json"

// stateDoc is one live document's manifest entry. Versions 2 and 3 write
// URL; version 1 wrote the same value under "source".
type stateDoc struct {
	Idx    int    `json:"idx"`
	Slot   int    `json:"slot,omitempty"`
	URL    string `json:"url,omitempty"`
	Source string `json:"source,omitempty"`
}

// stateManifest is the serialized form of a watch state directory's
// state.json. Fields a version lacks decode as their zero value.
type stateManifest struct {
	// Version guards the format; readers reject versions they don't know.
	Version int `json:"version"`
	// Cycle is the number of completed cycles.
	Cycle int `json:"cycle,omitempty"`
	// NextIdx is the next fresh accumulator index.
	NextIdx int `json:"next_idx,omitempty"`
	// Crawl holds the per-URL revalidation records.
	Crawl *crawler.CrawlState `json:"crawl,omitempty"`
	// Docs lists the live documents; each entry's XML lives in the file
	// docFile(Idx, Slot) names.
	Docs []stateDoc `json:"docs"`
	// Supports is the previous cycle's path → support map.
	Supports map[string]float64 `json:"supports,omitempty"`
	// DTD is the previous cycle's rendered DTD text.
	DTD string `json:"dtd,omitempty"`
	// Sites is the previous cycle's per-site conformance aggregate.
	Sites map[string]siteRate `json:"sites,omitempty"`
}

// docFile names the converted-XML file of accumulator index idx in slot
// slot (0 or 1).
func docFile(idx, slot int) string {
	if slot == 0 {
		return fmt.Sprintf("doc-%08d.xml", idx)
	}
	return fmt.Sprintf("doc-%08d-%d.xml", idx, slot)
}

// save flushes the watcher's state to the state directory: the documents
// converted since the last save into their unreferenced slots, then the
// manifest atomically, then tidy.
func (w *Watcher) save() error {
	sp := w.tr.StartSpan(obs.StageWatchSave)
	defer sp.End()
	dir := w.opt.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("watch: state dir: %w", err)
	}
	m := stateManifest{
		Version:  StateVersion,
		Cycle:    w.cycle,
		NextIdx:  w.next,
		Crawl:    w.crawl,
		Supports: w.prevSupports,
		DTD:      w.prevDTD,
		Sites:    w.prevSites,
	}
	for u, e := range w.docs {
		if e.dirty {
			e.slot, e.dirty = e.slot^1, false
			if err := os.WriteFile(filepath.Join(dir, docFile(e.idx, e.slot)), []byte(xmlout.Marshal(e.doc.XML)), 0o644); err != nil {
				return fmt.Errorf("watch: state doc write: %w", err)
			}
		}
		m.Docs = append(m.Docs, stateDoc{Idx: e.idx, Slot: e.slot, URL: u})
	}
	sort.Slice(m.Docs, func(i, j int) bool { return m.Docs[i].Idx < m.Docs[j].Idx })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("watch: state encode: %w", err)
	}
	if err := repository.WriteFileAtomic(filepath.Join(dir, stateFileName), data); err != nil {
		return fmt.Errorf("watch: state write: %w", err)
	}
	return tidy(dir, m.Docs)
}

// load restores the watcher from its state directory; a missing manifest
// is a fresh start, not an error. Every version loads the same way: the
// listed documents decode from their files, the delta accumulator refolds
// from them in index order, and the remaining fields restore as stored
// (version 1 lacks them, so it starts with an empty crawl state). Only
// after every document loaded does tidy run, so a failed load leaves the
// directory untouched.
func (w *Watcher) load() error {
	sp := w.tr.StartSpan(obs.StageWatchLoad)
	defer sp.End()
	dir := w.opt.StateDir
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("watch: state read: %w", err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("watch: state decode: %w", err)
	}
	if m.Version < 1 || m.Version > StateVersion {
		return fmt.Errorf("watch: state version %d not supported (want 1..%d)", m.Version, StateVersion)
	}

	w.cycle, w.next = m.Cycle, m.NextIdx
	for _, sd := range m.Docs {
		name := cmp.Or(sd.URL, sd.Source)
		xml, err := os.ReadFile(filepath.Join(dir, docFile(sd.Idx, sd.Slot)))
		if err != nil {
			return fmt.Errorf("watch: state doc %d (%s): %w", sd.Idx, name, err)
		}
		root, err := xmlout.UnmarshalElement(string(xml))
		if err != nil {
			return fmt.Errorf("watch: state doc %d (%s): %w", sd.Idx, name, err)
		}
		if name == "" || w.docs[name] != nil {
			return fmt.Errorf("watch: state doc %d: missing or duplicate name %q", sd.Idx, name)
		}
		w.docs[name] = &docEntry{idx: sd.Idx, slot: sd.Slot, doc: &core.Document{Source: name, XML: root}}
		w.next = max(w.next, sd.Idx+1)
	}
	for _, e := range w.entries() {
		w.acc.Add(e.idx, w.opt.Pipeline.ExtractPaths(e.doc))
	}
	if m.Crawl != nil && m.Crawl.Pages != nil {
		w.crawl = m.Crawl
	}
	if m.Supports != nil {
		w.prevSupports = m.Supports
	}
	w.prevDTD = m.DTD
	if m.Sites != nil {
		w.prevSites = m.Sites
	}
	if w.tr.Enabled() {
		w.tr.Add(obs.CtrWatchRefolded, int64(len(m.Docs)))
	}
	return tidy(dir, m.Docs)
}

// tidy brings the doc-* files of dir in line with the manifest entries
// docs: the unreferenced slot of each live document is emptied, and every
// other unreferenced file (a retired document's) is removed.
func tidy(dir string, docs []stateDoc) error {
	live := make(map[string]bool, 2*len(docs)) // file name → referenced
	for _, sd := range docs {
		live[docFile(sd.Idx, sd.Slot)] = true
		live[docFile(sd.Idx, sd.Slot^1)] = false
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("watch: state cleanup: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		referenced, spare := live[name]
		if referenced || !strings.HasPrefix(name, "doc-") {
			continue
		}
		var err error
		path := filepath.Join(dir, name)
		if !spare {
			err = os.Remove(path)
		} else if info, ierr := ent.Info(); ierr != nil || info.Size() > 0 {
			err = os.Truncate(path, 0)
		}
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("watch: state cleanup: %w", err)
		}
	}
	return nil
}
