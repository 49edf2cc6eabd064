package watch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"webrev/internal/core"
	"webrev/internal/crawler"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// The watch state directory is version 2 of the checkpoint manifest layout.
// Version 1 was the checkpoint of a streaming build driver that has since
// been retired; nothing writes it any more. The directory shape is unchanged — a state.json manifest plus
// one doc-%08d.xml file per live converted document, manifest written
// atomically (tmp + rename), doc files not listed in the manifest ignored —
// and version 2 extends the manifest with the continuous-operation state:
// the crawl validators (crawler.CrawlState), the delta accumulator, the
// cycle ordinal, and the previous cycle's derivation (supports, DTD text,
// per-site conformance) that the next drift report diffs against.
//
// A legacy version-1 manifest still loads, read-only: its
// documents are restored and their statistics re-extracted into a fresh
// delta accumulator, and the crawl state starts empty, so the first cycle
// refetches everything and classifies by content hash. The full format
// contract, including the version bump policy, is documented in DESIGN.md
// ("Versioned persistent formats").

// StateVersion is the watch state manifest version this package writes.
const StateVersion = 2

// stateFileName is the manifest filename inside a state directory.
const stateFileName = "state.json"

// stateDoc is one live document's manifest entry. Version 2 writes URL;
// version 1 wrote the same value under "source".
type stateDoc struct {
	Idx    int    `json:"idx"`
	URL    string `json:"url,omitempty"`
	Source string `json:"source,omitempty"`
}

// name returns the document's identifier under either version's field.
func (d stateDoc) name() string {
	if d.URL != "" {
		return d.URL
	}
	return d.Source
}

// stateManifest is the serialized form of a watch state directory's
// state.json, covering both the version it writes (2) and the legacy
// version-1 fields it can migrate from.
type stateManifest struct {
	// Version guards the format; readers reject versions they don't know.
	Version int `json:"version"`
	// Cycle is the number of completed cycles.
	Cycle int `json:"cycle,omitempty"`
	// NextIdx is the next fresh accumulator index.
	NextIdx int `json:"next_idx,omitempty"`
	// Crawl holds the per-URL revalidation records.
	Crawl *crawler.CrawlState `json:"crawl,omitempty"`
	// Acc is the delta accumulator's JSON encoding (version 2).
	Acc json.RawMessage `json:"acc,omitempty"`
	// Shards holds per-worker accumulator encodings (version 1 only; they
	// are not delta-capable and are discarded on migration).
	Shards []json.RawMessage `json:"shards,omitempty"`
	// Docs lists the live documents; each entry's XML lives in doc-%08d.xml.
	Docs []stateDoc `json:"docs"`
	// Supports is the previous cycle's path → support map.
	Supports map[string]float64 `json:"supports,omitempty"`
	// DTD is the previous cycle's rendered DTD text.
	DTD string `json:"dtd,omitempty"`
	// Sites is the previous cycle's per-site conformance aggregate.
	Sites map[string]siteRate `json:"sites,omitempty"`
}

// docFile names the converted-XML file of accumulator index idx — the same
// naming the version-1 checkpoint store uses.
func docFile(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("doc-%08d.xml", idx))
}

// save flushes the watcher's state to the state directory: dirty document
// files first, then the manifest atomically, then retired document files
// are removed. A crash between the doc writes and the rename leaves the
// previous manifest authoritative — unreferenced doc files are ignored on
// load.
func (w *Watcher) save() error {
	dir := w.opt.StateDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("watch: state dir: %w", err)
	}
	for idx, d := range w.dirty {
		if err := os.WriteFile(docFile(dir, idx), []byte(xmlout.Marshal(d.XML)), 0o644); err != nil {
			return fmt.Errorf("watch: state doc write: %w", err)
		}
	}
	accJSON, err := json.Marshal(w.acc)
	if err != nil {
		return fmt.Errorf("watch: state encode: %w", err)
	}
	m := stateManifest{
		Version:  StateVersion,
		Cycle:    w.cycle,
		NextIdx:  w.next,
		Crawl:    w.crawl,
		Acc:      accJSON,
		Supports: w.prevSupports,
		DTD:      w.prevDTD,
		Sites:    w.prevSites,
	}
	for u, e := range w.docs {
		m.Docs = append(m.Docs, stateDoc{Idx: e.idx, URL: u})
	}
	sort.Slice(m.Docs, func(i, j int) bool { return m.Docs[i].Idx < m.Docs[j].Idx })
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return fmt.Errorf("watch: state encode: %w", err)
	}
	tmp := filepath.Join(dir, stateFileName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("watch: state write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, stateFileName)); err != nil {
		return fmt.Errorf("watch: state write: %w", err)
	}
	for idx := range w.removed {
		os.Remove(docFile(dir, idx))
	}
	w.dirty = make(map[int]*core.Document)
	w.removed = make(map[int]bool)
	return nil
}

// load restores the watcher from its state directory. A missing manifest is
// a fresh start, not an error. Version 2 restores everything; legacy
// version 1 migrates — documents restore from their XML,
// statistics re-extract into a fresh delta accumulator, and the crawl state
// starts empty.
func (w *Watcher) load() error {
	dir := w.opt.StateDir
	data, err := os.ReadFile(filepath.Join(dir, stateFileName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("watch: state read: %w", err)
	}
	var m stateManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("watch: state decode: %w", err)
	}
	switch m.Version {
	case 1, StateVersion:
	default:
		return fmt.Errorf("watch: state version %d not supported (want 1 or %d)", m.Version, StateVersion)
	}

	maxIdx := -1
	for _, sd := range m.Docs {
		xml, err := os.ReadFile(docFile(dir, sd.Idx))
		if err != nil {
			return fmt.Errorf("watch: state doc %d: %w", sd.Idx, err)
		}
		root, err := xmlout.UnmarshalElement(string(xml))
		if err != nil {
			return fmt.Errorf("watch: state doc %d: %w", sd.Idx, err)
		}
		name := sd.name()
		if name == "" || w.docs[name] != nil {
			return fmt.Errorf("watch: state doc %d: missing or duplicate name %q", sd.Idx, name)
		}
		w.docs[name] = &docEntry{idx: sd.Idx, doc: &core.Document{Source: name, XML: root}}
		if sd.Idx > maxIdx {
			maxIdx = sd.Idx
		}
	}

	if m.Version == StateVersion {
		w.cycle = m.Cycle
		w.next = m.NextIdx
		if w.next <= maxIdx {
			w.next = maxIdx + 1
		}
		if m.Crawl != nil && m.Crawl.Pages != nil {
			w.crawl = m.Crawl
		}
		if len(m.Acc) > 0 {
			acc := &schema.Accumulator{}
			if err := json.Unmarshal(m.Acc, acc); err != nil {
				return fmt.Errorf("watch: state decode: %w", err)
			}
			if !acc.Delta() {
				return fmt.Errorf("watch: state accumulator is not delta-capable")
			}
			if acc.Docs() != len(w.docs) {
				return fmt.Errorf("watch: state accumulator folds %d documents, manifest lists %d",
					acc.Docs(), len(w.docs))
			}
			w.acc = acc
		}
		if m.Supports != nil {
			w.prevSupports = m.Supports
		}
		w.prevDTD = m.DTD
		if m.Sites != nil {
			w.prevSites = m.Sites
		}
		return nil
	}

	// Version 1: re-extract statistics into the delta accumulator; the
	// checkpoint's own (compacted, non-invertible) shards are discarded.
	w.next = maxIdx + 1
	for _, e := range w.docs {
		w.acc.Add(e.idx, w.opt.Pipeline.ExtractPaths(e.doc))
	}
	return nil
}
