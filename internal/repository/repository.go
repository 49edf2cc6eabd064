// Package repository implements the XML document repository the pipeline
// feeds (paper §1: "integration of topic specific HTML documents into a
// repository of XML documents"). A repository couples a derived DTD with
// the conformant documents, persists both to disk, loads them back, and
// answers label-path queries through the path index. Documents live behind
// the Store interface, so a repository can keep them fully in memory
// (MemStore) or disk-backed with a bounded resident set (DiskStore).
package repository

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"webrev/internal/dom"
	"webrev/internal/dtd"
	"webrev/internal/pathindex"
	"webrev/internal/query"
	"webrev/internal/xmlout"
)

// Repository is a set of DTD-conformant XML documents.
type Repository struct {
	dtd   *dtd.DTD
	store Store
	index *pathindex.Index // built lazily, invalidated by Add
}

// New returns an empty in-memory repository governed by the given DTD.
func New(d *dtd.DTD) *Repository { return NewWithStore(d, NewMemStore()) }

// NewWithStore returns a repository governed by the given DTD whose
// documents live in s. The store may already hold documents (e.g. a
// DiskStore produced by a sharded build); they are trusted to conform.
func NewWithStore(d *dtd.DTD, s Store) *Repository {
	return &Repository{dtd: d, store: s}
}

// DTD returns the governing DTD.
func (r *Repository) DTD() *dtd.DTD { return r.dtd }

// Store returns the backing document store.
func (r *Repository) Store() Store { return r.store }

// Len returns the number of stored documents.
func (r *Repository) Len() int { return r.store.Len() }

// Names returns the stored document names in insertion order.
func (r *Repository) Names() []string {
	out := make([]string, r.store.Len())
	for i := range out {
		out[i] = r.store.Name(i)
	}
	return out
}

// Doc returns the i-th document. On a disk-backed store a read failure
// (torn file, out-of-range index) returns nil; callers that need the error
// read through Store().Doc directly.
func (r *Repository) Doc(i int) *dom.Node {
	d, err := r.store.Doc(i)
	if err != nil {
		return nil
	}
	return d
}

// Add validates doc against the DTD and stores it. Non-conforming
// documents are rejected — map them first (internal/mapping.Conform).
func (r *Repository) Add(name string, doc *dom.Node) error {
	if errs := r.dtd.Validate(doc); len(errs) > 0 {
		return fmt.Errorf("repository: %q does not conform: %v", name, errs[0])
	}
	if err := r.store.Append(name, doc); err != nil {
		return err
	}
	r.index = nil
	return nil
}

// Index returns the label-path index over the stored documents, building
// it on first use. Building decodes every document once; with a disk
// store the trees stream through the bounded LRU rather than staying
// resident (the index itself holds only label paths and refs).
func (r *Repository) Index() *pathindex.Index {
	if r.index == nil {
		docs := make([]*dom.Node, r.store.Len())
		for i := range docs {
			docs[i], _ = r.store.Doc(i)
		}
		r.index = pathindex.Build(docs)
	}
	return r.index
}

// Query compiles and evaluates a label-path query (see internal/query for
// the syntax) against the repository.
func (r *Repository) Query(expr string) ([]pathindex.Ref, error) {
	q, err := query.Compile(expr)
	if err != nil {
		return nil, err
	}
	return q.Evaluate(r.Index()), nil
}

// Count compiles expr and returns the number of matches without
// materializing them (query.Query.Count streams through the index).
func (r *Repository) Count(expr string) (int, error) {
	q, err := query.Compile(expr)
	if err != nil {
		return 0, err
	}
	return q.Count(r.Index()), nil
}

const (
	dtdFile      = "schema.dtd"
	manifestFile = "manifest.txt"
)

// Save writes the repository to dir: schema.dtd, one XML file per document,
// and a manifest mapping files to original names. Documents are copied out
// as their canonical XML bytes, so saving a disk-backed repository never
// decodes them.
func (r *Repository) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, dtdFile), []byte(r.dtd.Render()), 0o644); err != nil {
		return err
	}
	var manifest strings.Builder
	for i := 0; i < r.store.Len(); i++ {
		file := fmt.Sprintf("doc-%05d.xml", i)
		xml, err := r.store.XML(i)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, file), xml, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&manifest, "%s\t%s\n", file, r.store.Name(i))
	}
	return os.WriteFile(filepath.Join(dir, manifestFile), []byte(manifest.String()), 0o644)
}

// SaveDTDFile writes the rendered DTD into dir under the standard
// schema.dtd name, making a disk store's directory a self-contained
// repository for LoadDisk. The sharded build (core.BuildSharded) calls
// this on its final segment directory.
func SaveDTDFile(dir string, d *dtd.DTD) error {
	return os.WriteFile(filepath.Join(dir, dtdFile), []byte(d.Render()), 0o644)
}

// WriteFileAtomic replaces the file at path with data by writing
// path+".tmp" and renaming it over path, so a process crash leaves either
// the old file or the new one. It does not fsync, so an operating-system
// crash can still lose or tear the write.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// LoadDisk opens a disk-backed repository: the DTD from dir/schema.dtd and
// the documents from the disk store (index.log + segment.blob) in the same
// directory. Documents are not re-validated — they were validated when the
// store was built — so opening is O(index size), independent of corpus
// volume.
func LoadDisk(dir string, opts DiskOptions) (*Repository, error) {
	dtdText, err := os.ReadFile(filepath.Join(dir, dtdFile))
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	d, err := dtd.Parse(string(dtdText))
	if err != nil {
		return nil, err
	}
	s, err := OpenDiskStore(dir, opts)
	if err != nil {
		return nil, err
	}
	return NewWithStore(d, s), nil
}

// Load reads a repository previously written by Save. Every document is
// re-validated against the loaded DTD.
func Load(dir string) (*Repository, error) {
	dtdText, err := os.ReadFile(filepath.Join(dir, dtdFile))
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	d, err := dtd.Parse(string(dtdText))
	if err != nil {
		return nil, err
	}
	r := New(d)
	manifest, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("repository: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(manifest)), "\n")
	sort.SliceStable(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		if line == "" {
			continue
		}
		file, name, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("repository: malformed manifest line %q", line)
		}
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			return nil, fmt.Errorf("repository: %w", err)
		}
		doc, err := xmlout.UnmarshalElement(string(data))
		if err != nil {
			return nil, fmt.Errorf("repository: %s: %w", file, err)
		}
		if err := r.Add(name, doc); err != nil {
			return nil, err
		}
	}
	return r, nil
}
