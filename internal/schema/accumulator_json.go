package schema

import (
	"encoding/json"
	"fmt"
	"math/big"
	"sort"
)

// The accumulator's JSON codec serializes the exact mergeable statistics —
// big.Rat position sums as numerator/denominator strings, sequence samples
// with their corpus-index tags — so a sharded build can checkpoint its
// per-shard accumulators (and the watch loop its delta accumulator) and a
// resumed build can restore them losslessly. Paths marshal in sorted order, making the encoding
// deterministic for golden comparisons.

// accJSON is the wire form of an Accumulator.
type accJSON struct {
	Rep   int        `json:"rep"`
	Docs  int        `json:"docs"`
	Delta bool       `json:"delta,omitempty"`
	Paths []pathJSON `json:"paths,omitempty"`
}

// pathJSON is the wire form of one path's aggregate.
type pathJSON struct {
	Path    string        `json:"path"`
	Docs    int           `json:"docs"`
	PosNum  string        `json:"pos_num,omitempty"`
	PosDen  string        `json:"pos_den,omitempty"`
	PosDocs int           `json:"pos_docs,omitempty"`
	RepDocs int           `json:"rep_docs,omitempty"`
	Seqs    []docSeqsJSON `json:"seqs,omitempty"`
}

// docSeqsJSON is the wire form of one document's sequence sample.
type docSeqsJSON struct {
	Doc  int        `json:"doc"`
	Seqs [][]string `json:"seqs"`
}

// MarshalJSON encodes the accumulator's full state deterministically
// (paths sorted, sequence samples sorted by corpus index).
func (a *Accumulator) MarshalJSON() ([]byte, error) {
	out := accJSON{Rep: a.rep, Docs: a.docs, Delta: a.delta}
	keys := make([]string, 0, len(a.paths))
	for p := range a.paths {
		keys = append(keys, p)
	}
	sort.Strings(keys)
	for _, p := range keys {
		g := a.paths[p]
		pj := pathJSON{
			Path:    p,
			Docs:    g.docs,
			PosDocs: g.posDocs,
			RepDocs: g.repDocs,
		}
		if g.posSum.present() {
			r := g.posSum.rat()
			pj.PosNum = r.Num().String()
			pj.PosDen = r.Denom().String()
		}
		seqs := append([]docSeqs(nil), g.seqs...)
		sort.Slice(seqs, func(i, j int) bool { return seqs[i].doc < seqs[j].doc })
		for _, ds := range seqs {
			pj.Seqs = append(pj.Seqs, docSeqsJSON{Doc: ds.doc, Seqs: ds.seqs})
		}
		out.Paths = append(out.Paths, pj)
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores an accumulator from its MarshalJSON encoding. The
// restored accumulator merges and mines identically to the original.
func (a *Accumulator) UnmarshalJSON(data []byte) error {
	var in accJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("schema: accumulator decode: %w", err)
	}
	if in.Rep <= 0 {
		return fmt.Errorf("schema: accumulator decode: invalid repetition threshold %d", in.Rep)
	}
	a.rep = in.Rep
	a.docs = in.Docs
	a.delta = in.Delta
	a.table = nil
	a.paths = make(map[string]*pathAgg, len(in.Paths))
	for _, pj := range in.Paths {
		g := &pathAgg{
			docs:    pj.Docs,
			posDocs: pj.PosDocs,
			repDocs: pj.RepDocs,
		}
		if pj.PosNum != "" {
			num, ok := new(big.Int).SetString(pj.PosNum, 10)
			if !ok {
				return fmt.Errorf("schema: accumulator decode: bad position numerator %q", pj.PosNum)
			}
			den, ok := new(big.Int).SetString(pj.PosDen, 10)
			if !ok || den.Sign() == 0 {
				return fmt.Errorf("schema: accumulator decode: bad position denominator %q", pj.PosDen)
			}
			g.posSum.setRat(new(big.Rat).SetFrac(num, den))
		}
		for _, ds := range pj.Seqs {
			g.seqs = append(g.seqs, docSeqs{doc: ds.Doc, seqs: ds.Seqs})
			g.nseqs += len(ds.Seqs)
		}
		a.paths[pj.Path] = g
	}
	return nil
}
