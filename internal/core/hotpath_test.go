package core

import (
	"reflect"
	"testing"

	"webrev/internal/dtd"
	"webrev/internal/mapping"
	"webrev/internal/schema"
	"webrev/internal/xmlout"
)

// TestDiscoverSchemaShardInvariance is the golden-determinism proof at the
// pipeline seam: the sharded parallel fold DiscoverSchema now runs must
// produce a schema — and a derived DTD rendering — byte-identical to a
// fully serial fold of the same converted documents.
func TestDiscoverSchemaShardInvariance(t *testing.T) {
	p := tracedPipeline(t, nil, 0)
	docs := p.ConvertAll(corpusSources(16, 12345))

	parallel := p.DiscoverSchema(docs) // mineShards-way fold
	acc := schema.NewAccumulator(0)
	for i, d := range docs {
		acc.Add(i, p.ExtractPaths(d))
	}
	serial := p.MineStats(acc)

	if !reflect.DeepEqual(parallel, serial) {
		t.Fatalf("sharded DiscoverSchema diverged from serial fold:\n%s\nvs\n%s", parallel, serial)
	}
	dp := dtd.FromSchema(parallel, p.cfg.DTD)
	ds := dtd.FromSchema(serial, p.cfg.DTD)
	if dp.Render() != ds.Render() {
		t.Fatal("derived DTD rendering differs between sharded and serial mining")
	}
}

// TestConformPrecompileInvariance checks the compiled-index memo cannot
// change mapping output: conforming against a cold DTD (index built inside
// the call) and a precompiled one yields byte-identical XML and equal
// stats for every document.
func TestConformPrecompileInvariance(t *testing.T) {
	p := tracedPipeline(t, nil, 0)
	docs := p.ConvertAll(corpusSources(10, 777))
	s := p.DiscoverSchema(docs)

	cold := dtd.FromSchema(s, p.cfg.DTD)
	warm := dtd.FromSchema(s, p.cfg.DTD)
	mapping.Precompile(warm)
	for i, d := range docs {
		outCold, statsCold := mapping.Conform(d.XML, cold)
		outWarm, statsWarm := mapping.Conform(d.XML, warm)
		if statsCold != statsWarm {
			t.Fatalf("doc %d: stats differ cold %+v warm %+v", i, statsCold, statsWarm)
		}
		if xmlout.Marshal(outCold) != xmlout.Marshal(outWarm) {
			t.Fatalf("doc %d: conformed XML differs between cold and precompiled DTD", i)
		}
	}
}
