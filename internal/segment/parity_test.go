package segment

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/postings"
	"fastinvert/internal/search"
	"fastinvert/internal/store"
)

// parityFiles is the collection every state below indexes: three
// container files of 300 documents. "common" is in every document, so
// its list is long enough for the blocked layout inside one run, one
// sealed segment and the merged or compacted whole alike; the other
// terms give mid-length, short and single-file lists.
func parityFiles() [][]string {
	files := make([][]string, 3)
	for f := range files {
		for d := 0; d < 300; d++ {
			doc := f*300 + d
			words := []string{"common"}
			if doc%5 == 0 {
				words = append(words, "common", "common")
			}
			if doc%3 == 0 {
				words = append(words, "middling")
			}
			words = append(words, fmt.Sprintf("bucket%d", doc/100), fmt.Sprintf("residue%d", doc%7))
			if f == 1 && d%50 == 0 {
				words = append(words, "secondfile")
			}
			files[f] = append(files[f], strings.Join(words, " "))
		}
	}
	return files
}

// paritySource serves parityFiles as container files.
type paritySource [][]string

func (s paritySource) NumFiles() int         { return len(s) }
func (s paritySource) FileName(i int) string { return fmt.Sprintf("parity-%05d.txt", i) }
func (s paritySource) ReadFile(i int) ([]byte, bool, error) {
	var sb strings.Builder
	for _, d := range s[i] {
		sb.WriteString(corpus.DocDelim)
		sb.WriteString(d)
	}
	return []byte(sb.String()), false, nil
}

// blockDocs concatenates the docIDs and TFs of every block of tb.
func blockDocs(t *testing.T, label string, tb *store.TermBlocks) (docs, tfs []uint32) {
	t.Helper()
	for _, bl := range tb.Lists {
		for i := 0; i < bl.NumBlocks(); i++ {
			d, f, err := bl.DecodeBlock(i)
			if err != nil {
				t.Fatalf("%s: block %d: %v", label, i, err)
			}
			docs, tfs = append(docs, d...), append(tfs, f...)
		}
	}
	return docs, tfs
}

// filtered is want without the documents in dead and outside [lo, hi].
func filtered(want *postings.List, dead map[uint32]bool, lo, hi uint32) *postings.List {
	out := &postings.List{}
	for i, doc := range want.DocIDs {
		if dead[doc] || doc < lo || doc > hi {
			continue
		}
		out.DocIDs = append(out.DocIDs, doc)
		out.TFs = append(out.TFs, want.TFs[i])
		if want.Positional() {
			out.Positions = append(out.Positions, want.Positions[i])
		}
	}
	return out
}

func sameList(t *testing.T, label string, got, want *postings.List) {
	t.Helper()
	if got.Len() == 0 && want.Len() == 0 {
		return
	}
	if !reflect.DeepEqual(got.DocIDs, want.DocIDs) || !reflect.DeepEqual(got.TFs, want.TFs) ||
		!reflect.DeepEqual(got.Positions, want.Positions) {
		t.Fatalf("%s: got %d postings %v..., want %d postings %v...", label,
			got.Len(), got.DocIDs[:min(got.Len(), 8)], want.Len(), want.DocIDs[:min(want.Len(), 8)])
	}
}

// fetchDelta reports how the per-codec fetch counters moved across fn.
func fetchDelta(counters func() map[string]uint64, fn func()) map[string]uint64 {
	before := counters()
	fn()
	delta := map[string]uint64{}
	for name, n := range counters() {
		if n != before[name] {
			delta[name] = n - before[name]
		}
	}
	return delta
}

// TestReadPathParity builds the same documents as a per-run batch
// index, its merged form, three sealed live segments and their
// compaction, and requires the three entry points over the one reader
// — IndexReader per-run assembly, IndexReader over merged.post, and
// Manager's view fan-out — to return identical lists and, wherever
// block evaluation is offered, identical block contents for every
// term; under live tombstones, against the filtered expectation.
func TestReadPathParity(t *testing.T) {
	for _, positional := range []bool{false, true} {
		t.Run(fmt.Sprintf("positional=%v", positional), func(t *testing.T) {
			testReadPathParity(t, positional)
		})
	}
}

func testReadPathParity(t *testing.T, positional bool) {
	ctx := context.Background()
	files := parityFiles()
	const numDocs, midLo, midHi = 900, 300, 599 // the middle run's range

	cfg := core.DefaultConfig()
	cfg.Parsers, cfg.CPUIndexers, cfg.GPUs = 1, 1, 1
	g := gpu.TeslaC1060()
	g.SMs = 2
	g.DeviceMemBytes = 32 << 20
	cfg.GPU = g
	cfg.Positional = positional
	cfg.Sampling.Ratio = 1
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(paritySource(files)); err != nil {
		t.Fatal(err)
	}

	// State 1, the baseline: per-run assembly.
	idx, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if len(idx.Runs()) != 3 || idx.NumDocs() != numDocs {
		t.Fatalf("batch index has %d runs, %d docs", len(idx.Runs()), idx.NumDocs())
	}
	want := map[string]*postings.List{}
	var terms []string
	for _, e := range idx.Dictionary() {
		l, err := idx.PostingsCtx(ctx, e.Term)
		if err != nil {
			t.Fatal(err)
		}
		want[e.Term] = l
		terms = append(terms, e.Term)
		if tb, err := idx.BlockPostingsCtx(ctx, e.Term); err != nil || tb != nil {
			t.Fatalf("%q: unmerged reader offers blocks (%v, %v)", e.Term, tb, err)
		}
	}
	if l := want["common"]; l.Len() != numDocs || l.DocIDs[0] != 0 || l.DocIDs[numDocs-1] != numDocs-1 || l.Positional() != positional {
		t.Fatalf("\"common\" holds %d postings (positional %v), want one per document", l.Len(), l.Positional())
	}
	noneDead := map[uint32]bool{}
	ranges := func(label string, r *store.IndexReader) {
		t.Helper()
		for _, term := range terms {
			got, err := r.PostingsRange(term, midLo, midHi)
			if err != nil {
				t.Fatal(err)
			}
			sameList(t, fmt.Sprintf("%s %q[%d,%d]", label, term, midLo, midHi), got, filtered(want[term], noneDead, midLo, midHi))
		}
	}
	ranges("per-run", idx)
	if st := idx.Stats(); st.RunFallbacks == 0 || st.MergedHits != 0 || st.MergedReadErrors != 0 {
		t.Fatalf("per-run reader stats = %+v, want only unmerged fallbacks", st)
	}

	// State 2: merged — the reader that merged switches over, and a
	// fresh one opens what it wrote.
	if _, err := idx.Merge(); err != nil {
		t.Fatal(err)
	}
	ranges("merging reader", idx)
	if st := idx.Stats(); st.MergedHits == 0 {
		t.Fatalf("merging reader did not switch to the merged file: %+v", st)
	}
	if _, err := store.Verify(cfg.OutDir); err != nil {
		t.Fatalf("Verify of merged index: %v", err)
	}
	merged, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if !merged.MergedActive() {
		t.Fatal("merged file not active after merge")
	}
	blockedTerms := 0
	for _, term := range terms {
		got, err := merged.PostingsCtx(ctx, term)
		if err != nil {
			t.Fatal(err)
		}
		sameList(t, "merged "+term, got, want[term])
		tb, err := merged.BlockPostingsCtx(ctx, term)
		if err != nil || tb == nil {
			t.Fatalf("merged %q: no block view (%v)", term, err)
		}
		docs, tfs := blockDocs(t, "merged "+term, tb)
		sameList(t, "merged blocks "+term, &postings.List{DocIDs: docs, TFs: tfs, Positions: want[term].Positions}, want[term])
		if tb.Lists[0].NumBlocks() > 1 {
			blockedTerms++
		}
	}
	if (blockedTerms > 0) == positional {
		t.Fatalf("%d terms stored blocked with positional=%v", blockedTerms, positional)
	}
	ranges("merged", merged)
	if st := merged.Stats(); st.MergedHits == 0 || st.RunFallbacks != 0 {
		t.Fatalf("merged reader stats = %+v, want only merged hits", st)
	}

	// States 3 and 4: the same documents through the live manager.
	openLive := func() *Manager {
		t.Helper()
		m, err := Open(t.TempDir(), Options{Positional: positional})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		for _, docs := range files {
			for _, d := range docs {
				if _, err := m.AddDocument([]byte(d)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	checkLive := func(label string, m *Manager, segments int, dead map[uint32]bool, blocks bool) {
		t.Helper()
		if st := m.Stats(); st.Segments != segments || m.NumDocs() != int64(numDocs-len(dead)) {
			t.Fatalf("%s: %d segments, %d live docs", label, st.Segments, m.NumDocs())
		}
		for _, term := range terms {
			exp := filtered(want[term], dead, 0, ^uint32(0))
			got, err := m.PostingsCtx(ctx, term)
			if err != nil {
				t.Fatal(err)
			}
			sameList(t, label+" "+term, got, exp)
			tb, err := m.BlockPostingsCtx(ctx, term)
			if err != nil {
				t.Fatal(err)
			}
			if !blocks {
				if tb != nil {
					t.Fatalf("%s %q: blocks offered while tombstones are live", label, term)
				}
				continue
			}
			if tb == nil {
				t.Fatalf("%s %q: no block view", label, term)
			}
			docs, tfs := blockDocs(t, label+" "+term, tb)
			sameList(t, label+" blocks "+term, &postings.List{DocIDs: docs, TFs: tfs, Positions: exp.Positions}, exp)
		}
	}
	dead := map[uint32]bool{5: true, 300: true, 301: true, 899: true}
	kill := func(m *Manager) {
		t.Helper()
		for doc := range dead {
			if err := m.Delete(doc); err != nil {
				t.Fatal(err)
			}
		}
	}

	a := openLive()
	checkLive("sealed", a, 3, noneDead, true)
	kill(a)
	checkLive("sealed+tombstones", a, 3, dead, false)
	if err := a.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkLive("compacted after tombstones", a, 1, dead, true)

	b := openLive()
	if err := b.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	checkLive("compacted", b, 1, noneDead, true)

	// One counter vocabulary: the ranked read of one long list fetches
	// one list from the merged file and one from the compacted segment,
	// and both modes count it as exactly that. (The static reader here
	// has no decoded-list cache to answer from instead of the disk.)
	uncached, err := store.OpenIndexWith(cfg.OutDir, store.ReaderOptions{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer uncached.Close()
	topK := func(src search.Source) func() {
		s := search.NewWithSource(src)
		return func() {
			if _, err := s.TopKModeCtx(ctx, search.RankAuto, 10, "common"); err != nil {
				t.Fatal(err)
			}
			if st := s.RankStats(); st.BlockQueries != 1 || st.FallbackQueries != 0 {
				t.Fatalf("ranked read did not take the block path: %+v", st)
			}
		}
	}
	static := fetchDelta(func() map[string]uint64 { return uncached.Stats().CodecDecodes }, topK(uncached))
	live := fetchDelta(b.CodecDecodes, topK(b))
	if len(static) != 1 || !reflect.DeepEqual(static, live) {
		t.Fatalf("top-k over \"common\" counted %v in static mode, %v in live mode; want one fetch of one codec in both", static, live)
	}
	for _, n := range static {
		if n != 1 {
			t.Fatalf("top-k over \"common\" counted %v, want exactly one fetch", static)
		}
	}

	kill(b)
	checkLive("compacted+tombstones", b, 1, dead, false)
}
