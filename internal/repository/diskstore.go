package repository

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"webrev/internal/dom"
	"webrev/internal/obs"
	"webrev/internal/xmlout"
)

// DiskStore is the disk-backed Store: documents live as content-addressed
// XML blobs in one append-only segment file, addressed by an append-only
// index of JSON lines, with a bounded LRU of decoded DOMs in front. It is
// what lets a build hold a million-document repository with RSS bounded by
// MaxResidentDocs instead of the corpus size.
//
// On-disk layout (format "webrev-diskstore", version 1 — see DESIGN.md §8
// for the bump policy):
//
//	index.log    — header line `webrev-diskstore v1`, then one JSON line
//	               per document: {"name":…,"sha":hex,"off":N,"len":N}.
//	               Lines only ever append; off/len address segment.blob.
//	segment.blob — the XML blob bytes, back to back. A blob is written
//	               before its index line, so every complete index line
//	               points at complete data.
//
// Blobs are content-addressed by SHA-256: appending a document whose
// canonical XML matches an existing blob writes only an index line (the
// "store.deduped" counter), never duplicate segment bytes.
//
// Crash safety: Open scans the index, drops a torn trailing line, and
// ignores segment bytes past the last indexed extent, so a store killed
// mid-append reopens at its last complete document. The sharded build
// additionally truncates to its checkpoint watermark (TruncateDocs).
//
// All methods are safe for concurrent use; blob reads use pread
// (File.ReadAt) so readers never contend on a shared file offset.
type DiskStore struct {
	dir string
	tr  obs.Tracer

	maxResident int
	dedupeCap   int

	mu      sync.Mutex
	idx     *os.File    // index.log, append handle
	seg     *os.File    // segment.blob, O_RDWR: appends at segSize, pread anywhere
	entries []diskEntry // one per document, insertion order
	segSize int64
	dedupe  map[[sha256.Size]byte]blobRef
	lru     lruCache
	idxW    *bufio.Writer
	closed  bool
}

// diskEntry locates one document in the segment.
type diskEntry struct {
	name string
	sum  [sha256.Size]byte
	off  int64
	n    int32
}

// blobRef is a dedupe-map value: where an already-written blob lives.
type blobRef struct {
	off int64
	n   int32
}

// DiskOptions tunes a DiskStore.
type DiskOptions struct {
	// MaxResidentDocs bounds the decoded-DOM LRU: at most this many parsed
	// documents stay resident; further Doc reads evict the least recently
	// used. 0 selects DefaultMaxResidentDocs; negative disables caching
	// entirely (every Doc read decodes from disk).
	MaxResidentDocs int
	// DedupeCap bounds the in-memory content-address map. Once the store
	// holds this many distinct blobs, new unique content is still stored
	// but no longer joins the map (so later identical appends of it write
	// their own bytes). 0 selects DefaultDedupeCap. The bound keeps writer
	// memory independent of corpus size.
	DedupeCap int
	// Tracer records the store.hits / store.misses / store.evictions /
	// store.deduped counters. Nil means the no-op tracer.
	Tracer obs.Tracer
}

// DefaultMaxResidentDocs is the decoded-DOM LRU bound when
// DiskOptions.MaxResidentDocs is 0.
const DefaultMaxResidentDocs = 256

// DefaultDedupeCap is the content-address map bound when
// DiskOptions.DedupeCap is 0.
const DefaultDedupeCap = 1 << 20

const (
	diskIndexFile   = "index.log"
	diskSegmentFile = "segment.blob"
	diskHeader      = "webrev-diskstore v1"
)

// diskLine is the JSON wire form of one index entry.
type diskLine struct {
	Name string `json:"name"`
	Sha  string `json:"sha"`
	Off  int64  `json:"off"`
	Len  int32  `json:"len"`
}

// CreateDiskStore creates (or truncates) a disk store in dir.
func CreateDiskStore(dir string, opts DiskOptions) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	idx, err := os.OpenFile(filepath.Join(dir, diskIndexFile), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, diskSegmentFile), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		idx.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	s := newDiskStore(dir, idx, seg, opts)
	if _, err := s.idxW.WriteString(diskHeader + "\n"); err != nil {
		s.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	return s, nil
}

// OpenDiskStore opens an existing disk store in dir for reading and further
// appends. A torn tail (a crash mid-append) is healed: incomplete trailing
// index lines and unindexed segment bytes are discarded.
func OpenDiskStore(dir string, opts DiskOptions) (*DiskStore, error) {
	data, err := os.ReadFile(filepath.Join(dir, diskIndexFile))
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	seg, err := os.OpenFile(filepath.Join(dir, diskSegmentFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	segInfo, err := seg.Stat()
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	segSize := segInfo.Size()

	header, rest, _ := bytes.Cut(data, []byte("\n"))
	if string(header) != diskHeader {
		seg.Close()
		return nil, fmt.Errorf("repository: disk store: unsupported index header %q (want %q)", header, diskHeader)
	}
	var (
		entries  []diskEntry
		goodEnd  = int64(len(header)) + 1 // byte offset of the last complete, valid line's end
		dataSize int64                    // high-water mark of indexed segment extents
		pos      = goodEnd
	)
	for len(rest) > 0 {
		line, tail, hasNL := bytes.Cut(rest, []byte("\n"))
		if !hasNL {
			break // torn trailing line: drop it
		}
		lineEnd := pos + int64(len(line)) + 1
		var dl diskLine
		if err := json.Unmarshal(line, &dl); err != nil {
			break // corrupt tail: everything from here on is dropped
		}
		sum, err := hex.DecodeString(dl.Sha)
		if err != nil || len(sum) != sha256.Size || dl.Off < 0 || dl.Len < 0 || dl.Off+int64(dl.Len) > segSize {
			break
		}
		e := diskEntry{name: dl.Name, off: dl.Off, n: dl.Len}
		copy(e.sum[:], sum)
		entries = append(entries, e)
		if end := dl.Off + int64(dl.Len); end > dataSize {
			dataSize = end
		}
		goodEnd = lineEnd
		pos = lineEnd
		rest = tail
	}
	// Heal: truncate the index to the last good line and the segment to
	// the last indexed byte, so the next append continues from a
	// consistent pair.
	if goodEnd < int64(len(data)) {
		if err := os.Truncate(filepath.Join(dir, diskIndexFile), goodEnd); err != nil {
			seg.Close()
			return nil, fmt.Errorf("repository: disk store heal: %w", err)
		}
	}
	if dataSize < segSize {
		if err := seg.Truncate(dataSize); err != nil {
			seg.Close()
			return nil, fmt.Errorf("repository: disk store heal: %w", err)
		}
	}
	idx, err := os.OpenFile(filepath.Join(dir, diskIndexFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		seg.Close()
		return nil, fmt.Errorf("repository: disk store: %w", err)
	}
	s := newDiskStore(dir, idx, seg, opts)
	s.entries = entries
	s.segSize = dataSize
	for _, e := range entries {
		if len(s.dedupe) >= s.dedupeCap {
			break
		}
		if _, ok := s.dedupe[e.sum]; !ok {
			s.dedupe[e.sum] = blobRef{off: e.off, n: e.n}
		}
	}
	return s, nil
}

func newDiskStore(dir string, idx, seg *os.File, opts DiskOptions) *DiskStore {
	maxResident := opts.MaxResidentDocs
	if maxResident == 0 {
		maxResident = DefaultMaxResidentDocs
	}
	dedupeCap := opts.DedupeCap
	if dedupeCap <= 0 {
		dedupeCap = DefaultDedupeCap
	}
	return &DiskStore{
		dir:         dir,
		tr:          obs.OrNop(opts.Tracer),
		maxResident: maxResident,
		dedupeCap:   dedupeCap,
		idx:         idx,
		seg:         seg,
		idxW:        bufio.NewWriter(idx),
		dedupe:      make(map[[sha256.Size]byte]blobRef),
		lru:         lruCache{byIdx: make(map[int]*list.Element)},
	}
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// Len returns the number of stored documents.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Name returns the i-th document's name.
func (s *DiskStore) Name(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[i].name
}

// Append marshals doc canonically and stores it under name.
func (s *DiskStore) Append(name string, doc *dom.Node) error {
	return s.AppendXML(name, []byte(xmlout.Marshal(doc)))
}

// AppendXML stores one document's canonical XML bytes (as produced by
// xmlout.Marshal) under name. Identical content is deduplicated against
// already-stored blobs.
func (s *DiskStore) AppendXML(name string, xml []byte) error {
	sum := sha256.Sum256(xml)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("repository: disk store: append on closed store")
	}
	ref, dup := s.dedupe[sum]
	if !dup {
		if _, err := s.seg.WriteAt(xml, s.segSize); err != nil {
			return fmt.Errorf("repository: disk store append: %w", err)
		}
		ref = blobRef{off: s.segSize, n: int32(len(xml))}
		s.segSize += int64(len(xml))
		if len(s.dedupe) < s.dedupeCap {
			s.dedupe[sum] = ref
		}
	} else if s.tr.Enabled() {
		s.tr.Add(obs.CtrStoreDeduped, 1)
	}
	line, err := json.Marshal(diskLine{Name: name, Sha: hex.EncodeToString(sum[:]), Off: ref.off, Len: ref.n})
	if err != nil {
		return fmt.Errorf("repository: disk store append: %w", err)
	}
	if _, err := s.idxW.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("repository: disk store append: %w", err)
	}
	e := diskEntry{name: name, off: ref.off, n: ref.n, sum: sum}
	s.entries = append(s.entries, e)
	return nil
}

// Flush pushes buffered index lines to the OS. A flushed store reopens
// with every appended document visible (module an OS crash; Flush does not
// fsync).
func (s *DiskStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idxW.Flush()
}

// XML returns the i-th document's canonical XML bytes, read straight from
// the segment (no cache: callers stream these once, or hash them).
func (s *DiskStore) XML(i int) ([]byte, error) {
	s.mu.Lock()
	if i < 0 || i >= len(s.entries) {
		n := len(s.entries)
		s.mu.Unlock()
		return nil, fmt.Errorf("repository: document %d out of range [0,%d)", i, n)
	}
	e := s.entries[i]
	s.mu.Unlock()
	buf := make([]byte, e.n)
	if _, err := s.seg.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("repository: disk store read %d: %w", i, err)
	}
	return buf, nil
}

// Doc returns the i-th document's decoded tree, serving repeats from the
// bounded LRU. The returned tree is shared across callers and must not be
// mutated.
func (s *DiskStore) Doc(i int) (*dom.Node, error) {
	s.mu.Lock()
	if d, ok := s.lru.get(i); ok {
		s.mu.Unlock()
		if s.tr.Enabled() {
			s.tr.Add(obs.CtrStoreHits, 1)
		}
		return d, nil
	}
	s.mu.Unlock()
	if s.tr.Enabled() {
		s.tr.Add(obs.CtrStoreMisses, 1)
	}
	xml, err := s.XML(i)
	if err != nil {
		return nil, err
	}
	d, err := xmlout.UnmarshalElement(string(xml))
	if err != nil {
		return nil, fmt.Errorf("repository: disk store decode %d: %w", i, err)
	}
	if s.maxResident > 0 {
		s.mu.Lock()
		evicted := s.lru.put(i, d, s.maxResident)
		s.mu.Unlock()
		if evicted > 0 && s.tr.Enabled() {
			s.tr.Add(obs.CtrStoreEvictions, int64(evicted))
		}
	}
	return d, nil
}

// TruncateDocs drops every document at index >= n, rewinding the store to
// its first n appends — the resume primitive of the sharded build: a
// restarted shard truncates its segment store to the last checkpoint's
// watermark before re-processing. Blob bytes past the kept entries'
// high-water mark are discarded.
func (s *DiskStore) TruncateDocs(n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 || n > len(s.entries) {
		return fmt.Errorf("repository: truncate to %d out of range [0,%d]", n, len(s.entries))
	}
	if n == len(s.entries) {
		return nil
	}
	if err := s.idxW.Flush(); err != nil {
		return err
	}
	s.entries = s.entries[:n]
	var dataSize int64
	rewrite := bytes.NewBuffer(make([]byte, 0, 64*(n+1)))
	rewrite.WriteString(diskHeader + "\n")
	for _, e := range s.entries {
		if end := e.off + int64(e.n); end > dataSize {
			dataSize = end
		}
		line, err := json.Marshal(diskLine{Name: e.name, Sha: hex.EncodeToString(e.sum[:]), Off: e.off, Len: e.n})
		if err != nil {
			return err
		}
		rewrite.Write(line)
		rewrite.WriteByte('\n')
	}
	if err := WriteFileAtomic(filepath.Join(s.dir, diskIndexFile), rewrite.Bytes()); err != nil {
		return fmt.Errorf("repository: disk store truncate: %w", err)
	}
	s.idx.Close()
	idx, err := os.OpenFile(filepath.Join(s.dir, diskIndexFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("repository: disk store truncate: %w", err)
	}
	s.idx = idx
	s.idxW = bufio.NewWriter(idx)
	if err := s.seg.Truncate(dataSize); err != nil {
		return fmt.Errorf("repository: disk store truncate: %w", err)
	}
	s.segSize = dataSize
	// Rebuild the dedupe map and drop cached decodes of removed entries.
	s.dedupe = make(map[[sha256.Size]byte]blobRef)
	for _, e := range s.entries {
		if len(s.dedupe) >= s.dedupeCap {
			break
		}
		if _, ok := s.dedupe[e.sum]; !ok {
			s.dedupe[e.sum] = blobRef{off: e.off, n: e.n}
		}
	}
	s.lru.clear()
	return nil
}

// BytesOnDisk returns the store's current footprint: segment bytes plus
// flushed index bytes.
func (s *DiskStore) BytesOnDisk() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idxW.Flush()
	var total int64 = s.segSize
	if fi, err := os.Stat(filepath.Join(s.dir, diskIndexFile)); err == nil {
		total += fi.Size()
	}
	return total
}

// Close flushes the index and releases both file handles.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.idxW.Flush()
	if e := s.idx.Close(); err == nil {
		err = e
	}
	if e := s.seg.Close(); err == nil {
		err = e
	}
	s.lru.clear()
	return err
}

// lruCache is the decoded-DOM LRU: index → tree, evicting least recently
// used past the bound. Callers hold the store mutex.
type lruCache struct {
	order list.List // front = most recent; values are *lruEntry
	byIdx map[int]*list.Element
}

// lruEntry is one cached decode.
type lruEntry struct {
	idx int
	doc *dom.Node
}

func (c *lruCache) get(i int) (*dom.Node, bool) {
	el, ok := c.byIdx[i]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).doc, true
}

func (c *lruCache) put(i int, d *dom.Node, max int) (evicted int) {
	if el, ok := c.byIdx[i]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).doc = d
		return 0
	}
	c.byIdx[i] = c.order.PushFront(&lruEntry{idx: i, doc: d})
	for c.order.Len() > max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.byIdx, back.Value.(*lruEntry).idx)
		evicted++
	}
	return evicted
}

func (c *lruCache) clear() {
	c.order.Init()
	if len(c.byIdx) > 0 {
		c.byIdx = make(map[int]*list.Element)
	}
}
