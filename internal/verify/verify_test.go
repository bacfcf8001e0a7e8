package verify

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
	"fastinvert/internal/store"
)

// -seeds sets the number of random corpora the differential test
// sweeps (tier-2 runs use 10+; see the Makefile differential target).
var seedCount = flag.Int("seeds", 10, "random corpus seeds for TestDifferential")

// TestDifferential is the paper's end-to-end ordering claim: the
// concurrent pipelined build produces an index identical to the serial
// reference and to all four baselines, on randomized corpora.
func TestDifferential(t *testing.T) {
	for s := 0; s < *seedCount; s++ {
		seed := int64(1000 + 7*s)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(context.Background(), Config{
				Seed:       seed,
				Positional: s%2 == 0,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Errorf("differential mismatch:\n%s", res.Summary())
			}
			if res.Terms == 0 || res.Postings == 0 {
				t.Errorf("degenerate corpus: %s", res.Summary())
			}
			// Every comparison must actually have run: reference + the
			// full baseline registry.
			if len(res.Comparisons) < 5 {
				t.Errorf("only %d comparisons ran", len(res.Comparisons))
			}
		})
	}
}

// TestGeneratorDeterministic pins the reproduce-from-seed contract:
// identical configs generate identical bytes, different seeds differ.
func TestGeneratorDeterministic(t *testing.T) {
	cfg := DefaultGenConfig(42)
	a, b := NewSource(cfg), NewSource(cfg)
	for i := 0; i < a.NumFiles(); i++ {
		ba, _, err := a.ReadFile(i)
		if err != nil {
			t.Fatal(err)
		}
		bb, _, err := b.ReadFile(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("file %d not deterministic", i)
		}
		// Re-reading the same source must also be stable (the engine's
		// sampling phase reads every file twice).
		bc, _, _ := a.ReadFile(i)
		if !bytes.Equal(ba, bc) {
			t.Fatalf("file %d changed between reads", i)
		}
	}
	other := NewSource(DefaultGenConfig(43))
	if other.NumFiles() == a.NumFiles() {
		oa, _, _ := other.ReadFile(0)
		aa, _, _ := a.ReadFile(0)
		if bytes.Equal(oa, aa) {
			t.Fatal("different seeds generated identical content")
		}
	}
}

// TestGeneratorEdgeCases checks the adversarial content is really in
// the stream: empty documents get dropped before docID assignment, and
// edge-pool tokens appear.
func TestGeneratorEdgeCases(t *testing.T) {
	cfg := GenConfig{
		Seed: 7, Files: 4, DocsPerFile: 40, VocabSize: 100,
		MeanDocTokens: 20, EmptyDocRatio: 0.25, DupDocRatio: 0.2,
		EdgeCaseRatio: 0.3,
	}
	src := NewSource(cfg)
	totalDocs, sawEdge := 0, false
	for i := 0; i < src.NumFiles(); i++ {
		raw, gz, err := src.ReadFile(i)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := corpus.Decompress(raw, gz)
		if err != nil {
			t.Fatal(err)
		}
		docs := corpus.SplitDocs(plain)
		totalDocs += len(docs)
		if bytes.Contains(plain, []byte("日本語")) || bytes.Contains(plain, []byte("héllo")) {
			sawEdge = true
		}
	}
	if totalDocs == cfg.Files*cfg.DocsPerFile {
		t.Errorf("no empty documents were generated (got all %d docs)", totalDocs)
	}
	if totalDocs == 0 {
		t.Fatal("corpus degenerated to zero documents")
	}
	if !sawEdge {
		t.Error("no edge-pool tokens found in 160 documents at ratio 0.3")
	}
}

// TestDiffListsDetectsMismatch proves the differ is not vacuous: every
// mutation class it claims to check is actually reported.
func TestDiffListsDetectsMismatch(t *testing.T) {
	mk := func() map[string]*postings.List {
		return map[string]*postings.List{
			"alpha": {DocIDs: []uint32{1, 5, 9}, TFs: []uint32{2, 1, 3}},
			"beta":  {DocIDs: []uint32{2}, TFs: []uint32{1}},
		}
	}
	cases := []struct {
		name   string
		mutate func(m map[string]*postings.List)
		kind   string
	}{
		{"missing term", func(m map[string]*postings.List) { delete(m, "beta") }, "missing"},
		{"extra term", func(m map[string]*postings.List) {
			m["gamma"] = &postings.List{DocIDs: []uint32{3}, TFs: []uint32{1}}
		}, "extra"},
		{"length", func(m map[string]*postings.List) {
			m["alpha"].DocIDs = m["alpha"].DocIDs[:2]
			m["alpha"].TFs = m["alpha"].TFs[:2]
		}, "length"},
		{"docID", func(m map[string]*postings.List) { m["alpha"].DocIDs[1] = 6 }, "doc-ids"},
		{"tf", func(m map[string]*postings.List) { m["alpha"].TFs[2] = 9 }, "tfs"},
		{"unsorted", func(m map[string]*postings.List) { m["alpha"].DocIDs[1] = 1 }, "unsorted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := mk()
			tc.mutate(got)
			rep := DiffLists("mutated", got, mk(), 8)
			if rep.OK() {
				t.Fatalf("mutation %q not detected", tc.name)
			}
			found := false
			for _, d := range rep.Diffs {
				if d.Kind == tc.kind {
					found = true
				}
			}
			if !found {
				t.Errorf("want a %q diff, got: %s", tc.kind, rep)
			}
		})
	}
	if rep := DiffLists("equal", mk(), mk(), 8); !rep.OK() {
		t.Errorf("identical maps reported diffs: %s", rep)
	}
}

// TestDiffListsPositions pins positional comparison.
func TestDiffListsPositions(t *testing.T) {
	mk := func(pos uint32) map[string]*postings.List {
		return map[string]*postings.List{
			"alpha": {DocIDs: []uint32{1}, TFs: []uint32{2},
				Positions: [][]uint32{{0, pos}}},
		}
	}
	if rep := DiffLists("pos", mk(4), mk(4), 8); !rep.OK() {
		t.Errorf("identical positions reported diffs: %s", rep)
	}
	rep := DiffLists("pos", mk(4), mk(5), 8)
	if rep.OK() || rep.Diffs[0].Kind != "positions" {
		t.Errorf("position mismatch not detected: %s", rep)
	}
}

// TestDifferentialAcrossCorpora sanity-checks the harness end: indexes
// of two different corpora must NOT compare equal.
func TestDifferentialAcrossCorpora(t *testing.T) {
	a, err := reference.BuildFromSource(NewSource(DefaultGenConfig(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := reference.BuildFromSource(NewSource(DefaultGenConfig(2)))
	if err != nil {
		t.Fatal(err)
	}
	if rep := DiffLists("cross", a.Lists, b.Lists, 4); rep.OK() {
		t.Fatal("indexes of different corpora compared equal — the harness is vacuous")
	}
}

// TestRankOverBlockedLists runs the differential on a corpus whose
// head terms pass the blocking threshold — the shape DefaultGenConfig
// gives one seed in ten — so the ranked rows race the window pruning
// over real stored blocks and the block-bounds row checks real
// impacts, not pseudo-blocks alone.
func TestRankOverBlockedLists(t *testing.T) {
	gen := DefaultGenConfig(46)
	gen.Files, gen.DocsPerFile = 3, 200
	dir := filepath.Join(t.TempDir(), "idx")
	res, err := Run(context.Background(), Config{Gen: gen, OutDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("differential mismatch:\n%s", res.Summary())
	}
	idx, err := store.OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	blocked := 0
	for _, e := range idx.Dictionary() {
		tb, err := idx.BlockPostingsCtx(context.Background(), e.Term)
		if err != nil || tb == nil {
			t.Fatalf("%q: block view %v, %v", e.Term, tb, err)
		}
		for _, bl := range tb.Lists {
			if bl.NumBlocks() > 1 && bl.Skip(0).Impact > 0 {
				blocked++
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no list of the corpus was stored blocked with impacts")
	}
}
