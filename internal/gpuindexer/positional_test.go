package gpuindexer

import (
	"math/rand"
	"testing"

	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/parser"
)

// TestCPUGPUPositionalEquivalence extends the central equivalence
// property to positional postings: identical dictionaries, postings,
// and per-posting position lists.
func TestCPUGPUPositionalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	gpuIx := New(testDevice(), Config{})
	cpuIx := cpuindexer.New()

	docBase := uint32(0)
	for run := 0; run < 3; run++ {
		p := parser.New(nil)
		p.Positional = true
		blk := parser.NewBlock(0)
		docs := 2 + rng.Intn(3)
		for d := 0; d < docs; d++ {
			p.ParseDoc(uint32(d), []byte(synthText(rng, 400)), blk)
		}
		gs := groupsOf(blk)
		if _, err := gpuIx.IndexRun(gs, docBase); err != nil {
			t.Fatalf("run %d gpu: %v", run, err)
		}
		if _, err := cpuIx.IndexRun(gs, docBase); err != nil {
			t.Fatalf("run %d cpu: %v", run, err)
		}
		docBase += uint32(docs)
	}

	for _, coll := range cpuIx.Collections() {
		cs, gs := cpuIx.Store(coll), gpuIx.Store(coll)
		if cs.NumSlots() != gs.NumSlots() {
			t.Fatalf("collection %d slot counts differ", coll)
		}
		for slot := 0; slot < cs.NumSlots(); slot++ {
			cl, gl := cs.List(int32(slot)), gs.List(int32(slot))
			if cl.Len() != gl.Len() || cl.Positional() != gl.Positional() {
				t.Fatalf("collection %d slot %d shape differs", coll, slot)
			}
			for i := range cl.DocIDs {
				if cl.DocIDs[i] != gl.DocIDs[i] || cl.TFs[i] != gl.TFs[i] {
					t.Fatalf("collection %d slot %d posting %d differs", coll, slot, i)
				}
				cp, gp := cl.Positions[i], gl.Positions[i]
				if len(cp) != len(gp) {
					t.Fatalf("collection %d slot %d positions differ in count", coll, slot)
				}
				for j := range cp {
					if cp[j] != gp[j] {
						t.Fatalf("collection %d slot %d position %d: %d vs %d",
							coll, slot, j, cp[j], gp[j])
					}
				}
			}
		}
	}
}
