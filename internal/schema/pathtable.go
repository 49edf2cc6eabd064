package schema

import "sort"

// PathTable is the frozen, interned form of an Accumulator's path universe:
// every path gets a dense int32 id, with parent/child edges, last labels,
// and per-path aggregates resolved once. DiscoverStats mines over the table
// instead of re-deriving a children map and re-concatenating "parent/label"
// string keys per candidate, so repeated mining passes (watch-cycle re-mines,
// drift checks) do no per-path string work at all.
//
// The table is read-only and shares the accumulator's *pathAgg values; it
// is valid until the accumulator is next mutated (Add/Merge/UnmarshalJSON
// drop the cache, and the next Freeze rebuilds it).
type PathTable struct {
	paths    []string    // sorted lexicographically; index is the path id
	labels   []string    // LastLabel per id (substrings of paths — no copies)
	aggs     []*pathAgg  // aggregate per id
	parent   []int32     // parent id, -1 for roots
	children [][]int32   // child ids per id, in label order
	roots    []int32     // root ids, in label order
}

// Len returns the number of interned paths.
func (t *PathTable) Len() int { return len(t.paths) }

// Path returns the path string for an id.
func (t *PathTable) Path(id int32) string { return t.paths[id] }

// Freeze returns the interned path table for the accumulator's current
// contents, building it on first use and caching it until the next
// mutation. Freezing an empty accumulator yields an empty table.
func (a *Accumulator) Freeze() *PathTable {
	if a.table != nil {
		return a.table
	}
	t := &PathTable{
		paths: make([]string, 0, len(a.paths)),
	}
	for p := range a.paths {
		t.paths = append(t.paths, p)
	}
	sort.Strings(t.paths)
	n := len(t.paths)
	t.labels = make([]string, n)
	t.aggs = make([]*pathAgg, n)
	t.parent = make([]int32, n)
	t.children = make([][]int32, n)
	index := make(map[string]int32, n)
	for i, p := range t.paths {
		index[p] = int32(i)
	}
	// Iterating ids in sorted-path order appends each child to its parent
	// after the shared "parent/" prefix, i.e. in last-label order — the
	// same order the unfrozen miner visited (sort.Strings over labels).
	for i, p := range t.paths {
		t.labels[i] = LastLabel(p)
		t.aggs[i] = a.paths[p]
		par := ParentPath(p)
		if par == "" {
			t.parent[i] = -1
			t.roots = append(t.roots, int32(i))
			continue
		}
		pi, ok := index[par]
		if !ok {
			// Orphan path (non-prefix-closed input, e.g. a hand-edited
			// checkpoint): unreachable from any root, same as the unfrozen
			// miner's behavior.
			t.parent[i] = -1
			continue
		}
		t.parent[i] = pi
		t.children[pi] = append(t.children[pi], int32(i))
	}
	a.table = t
	return t
}
