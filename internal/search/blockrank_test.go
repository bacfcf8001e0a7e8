package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/encoding"
	"fastinvert/internal/gpu"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
	"fastinvert/internal/segment"
	"fastinvert/internal/store"
)

// buildBlockedIndex builds a corpus large enough that Zipf-head terms
// exceed the blocking threshold, merges it (which writes the blocked
// layout for those lists), and returns the reader plus the reference
// index.
func buildBlockedIndex(t testing.TB) (*store.IndexReader, *reference.Index) {
	t.Helper()
	p := corpus.ClueWeb09(1)
	p.VocabSize = 1000
	p.DocsPerFile = 60
	p.MeanDocTokens = 120
	src := corpus.NewMemSource(corpus.NewGenerator(p), 20)

	ref, err := reference.BuildFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Parsers = 2
	cfg.CPUIndexers = 2
	cfg.GPUs = 1
	g := gpu.TeslaC1060()
	g.SMs = 4
	g.DeviceMemBytes = 64 << 20
	cfg.GPU = g
	cfg.GPUThreadBlocks = 8
	cfg.Sampling.Ratio = 0.2
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		t.Fatal(err)
	}
	idx, err := store.OpenIndex(cfg.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	stats, err := idx.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocked == 0 {
		t.Fatalf("merge of %d lists produced no blocked lists", stats.Lists)
	}
	return idx, ref
}

// topTerms returns the n most frequent indexed terms.
func topTerms(ref *reference.Index, n int) []string {
	type tf struct {
		term string
		df   int
	}
	all := make([]tf, 0, len(ref.Lists))
	for term, l := range ref.Lists {
		all = append(all, tf{term, l.Len()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].term < all[j].term
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.term
	}
	return out
}

// rankQueries builds a diverse query mix from the reference index:
// single terms, head+tail combinations, duplicates, unknowns.
func rankQueries(ref *reference.Index) [][]string {
	top := topTerms(ref, 8)
	_, rare := pickTerms(ref)
	qs := [][]string{
		{top[0]},
		{rare},
		{top[0], top[1]},
		{top[0], rare},
		{top[0], top[1], top[2], top[3]},
		{top[0], top[0]}, // duplicate word: contributes twice
		{top[0], "zzzunknownzzz"},
		{"the", top[1]}, // stop word dropped
		top,
	}
	return qs
}

// assertSameResults requires bitwise-identical ranked results.
func assertSameResults(t *testing.T, label string, got, want []ScoredDoc) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d = (%d, %v), want (%d, %v)",
				label, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)
		}
	}
}

// TestBlockTopKMatchesExhaustiveStatic checks that the pruned
// evaluator returns exactly the exhaustive scorer's results — same
// docs, same order, bitwise-equal scores — over a merged static index
// with genuinely blocked Zipf-head lists, across a spread of k.
func TestBlockTopKMatchesExhaustiveStatic(t *testing.T) {
	idx, ref := buildBlockedIndex(t)
	s := New(idx)
	if !s.UsesBM25() {
		t.Fatal("static index should carry doc lengths (BM25)")
	}
	for qi, q := range rankQueries(ref) {
		for _, k := range []int{1, 3, 10, 100} {
			s.SetRankMode(RankExhaustive)
			want, err := s.TopK(k, q...)
			if err != nil {
				t.Fatal(err)
			}
			s.SetRankMode(RankAuto)
			got, err := s.TopK(k, q...)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResults(t, fmt.Sprintf("query %d %v k=%d", qi, q, k), got, want)
		}
	}
	st := s.RankStats()
	if st.BlockQueries == 0 {
		t.Fatal("no queries took the block path")
	}
	if st.BlocksSkipped == 0 {
		t.Error("expected block-max pruning to skip at least one block")
	}
	if st.FallbackQueries != 0 {
		t.Errorf("unexpected fallbacks: %d", st.FallbackQueries)
	}
}

// TestBlockTopKUnmergedFallsBack checks that a reader without a merged
// file serves TopK through the exhaustive path transparently.
func TestBlockTopKUnmergedFallsBack(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, rare := pickTerms(ref)
	s.SetRankMode(RankExhaustive)
	want, err := s.TopK(10, freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	s.SetRankMode(RankAuto)
	got, err := s.TopK(10, freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "unmerged fallback", got, want)
	if st := s.RankStats(); st.FallbackQueries == 0 || st.BlockQueries != 0 {
		t.Errorf("stats = %+v, want pure fallback", st)
	}
}

// liveManager builds a live index with several sealed segments (each
// holding blocked Zipf-head lists) plus a memtable tail.
func liveManager(t testing.TB, dir string) (*segment.Manager, int) {
	t.Helper()
	m, err := segment.Open(dir, segment.Options{SealEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	const nDocs = 1000
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 1.0, 400)
	var sb strings.Builder
	for d := 0; d < nDocs; d++ {
		sb.Reset()
		for w := 0; w < 40; w++ {
			fmt.Fprintf(&sb, "w%dx ", zipf.Uint64())
		}
		if _, err := m.AddDocument([]byte(sb.String())); err != nil {
			t.Fatal(err)
		}
	}
	return m, nDocs
}

// TestBlockTopKMatchesExhaustiveLive runs the same differential over a
// live manager — sealed segments with blocked lists, short lists, and
// the memtable pseudo-block — then deletes a document and checks the
// evaluators fall back (tombstones make block counts lie about df)
// while still agreeing with the exhaustive scorer.
func TestBlockTopKMatchesExhaustiveLive(t *testing.T) {
	m, _ := liveManager(t, t.TempDir())
	s := NewWithSource(m)
	if s.UsesBM25() {
		t.Fatal("live indexes rank with TF-IDF")
	}
	queries := [][]string{
		{"w0x"},
		{"w0x", "w1x"},
		{"w0x", "w7x", "w123x"},
		{"w399x"},
		{"w0x", "w0x"},
		{"w1x", "zzzunknownzzz"},
	}
	check := func(label string) {
		t.Helper()
		for qi, q := range queries {
			for _, k := range []int{1, 10, 100} {
				s.SetRankMode(RankExhaustive)
				want, err := s.TopK(k, q...)
				if err != nil {
					t.Fatal(err)
				}
				s.SetRankMode(RankAuto)
				got, err := s.TopK(k, q...)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("%s query %d %v k=%d", label, qi, q, k), got, want)
			}
		}
	}
	check("live")
	st := s.RankStats()
	if st.BlockQueries == 0 || st.BlocksSkipped == 0 {
		t.Fatalf("live block path inactive: %+v", st)
	}

	// A tombstone disables the block path until compaction purges it.
	if err := m.Delete(3); err != nil {
		t.Fatal(err)
	}
	check("tombstoned")
	if st2 := s.RankStats(); st2.FallbackQueries == 0 {
		t.Error("expected fallbacks while a tombstone is live")
	}
}

// TestBlockBoundsProperty is the impact-bound property test: for every
// blocked list in a merged index, each block's stored MaxTF must
// upper-bound every term frequency in the block, and the score bound
// derived from it must upper-bound the exhaustive contribution of
// every posting in the block.
func TestBlockBoundsProperty(t *testing.T) {
	idx, ref := buildBlockedIndex(t)
	s := New(idx)
	numDocs := s.NumDocs()
	blocked := 0
	for term := range ref.Lists {
		tb, err := idx.BlockPostingsCtx(t.Context(), term)
		if err != nil {
			t.Fatal(err)
		}
		if tb == nil || tb.Len() == 0 {
			t.Fatalf("%q: no block view", term)
		}
		df := float64(tb.Len())
		idf := 0.0
		if s.UsesBM25() {
			idf = math.Log(1 + (float64(numDocs)-df+0.5)/(df+0.5))
		} else {
			idf = math.Log(1 + float64(numDocs)/df)
		}
		for _, bl := range tb.Lists {
			if bl.NumBlocks() > 1 {
				blocked++
			}
			for b := 0; b < bl.NumBlocks(); b++ {
				sk := bl.Skip(b)
				docs, tfs, err := bl.DecodeBlock(b)
				if err != nil {
					t.Fatal(err)
				}
				if len(docs) != int(sk.Count) {
					t.Fatalf("%q block %d: %d postings, skip says %d", term, b, len(docs), sk.Count)
				}
				bound := s.impactBound(idf, sk.MaxTF)
				c := blockCursor{idf: idf}
				for i, doc := range docs {
					if tfs[i] > sk.MaxTF {
						t.Fatalf("%q block %d: tf %d exceeds stored MaxTF %d", term, b, tfs[i], sk.MaxTF)
					}
					c.curTF = tfs[i]
					if contrib := s.contribution(&c, doc); !boundExceeds(bound, contrib) && contrib > bound {
						t.Fatalf("%q block %d doc %d: contribution %v exceeds bound %v",
							term, b, doc, contrib, bound)
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("property test never saw a multi-block list")
	}
}

// stubSource is a Source over hand-made lists: every fetch hands back
// the same prebuilt values, so what a query allocates above it is the
// search package's own.
type stubSource struct {
	blocks  map[string]*store.TermBlocks
	lists   map[string]*postings.List
	numDocs int64
	docLens []uint32
}

func (s *stubSource) PostingsCtx(_ context.Context, term string) (*postings.List, error) {
	if l := s.lists[term]; l != nil {
		return l, nil
	}
	return &postings.List{}, nil
}

func (s *stubSource) BlockPostingsCtx(_ context.Context, term string) (*store.TermBlocks, error) {
	if tb := s.blocks[term]; tb != nil {
		return tb, nil
	}
	return &store.TermBlocks{}, nil
}

func (s *stubSource) NumDocs() int64                { return s.numDocs }
func (s *stubSource) DocLens() []uint32             { return s.docLens }
func (s *stubSource) Dictionary() []store.DictEntry { return nil }

// newStubSource stores each term's list the way a merge does — a run
// file with blocks enabled, codec self-selected — and reads it back as
// the stored skip table plus undecoded bodies, so a cursor over the
// stub decodes real blocks. docLens may be nil (TF-IDF).
func newStubSource(t testing.TB, numDocs int64, docLens []uint32, lists map[string]*postings.List) *stubSource {
	t.Helper()
	terms := make([]string, 0, len(lists))
	for term := range lists {
		terms = append(terms, term)
	}
	sort.Strings(terms)
	sel, err := encoding.SelectorFor("auto")
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewRunBuilderCodec(sel)
	b.EnableBlocks()
	for slot, term := range terms {
		if err := b.AddList(0, int32(slot), lists[term].DocIDs, lists[term].TFs); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "stub.post")
	if err := os.WriteFile(path, b.Finalize(0, uint32(numDocs-1)), 0o644); err != nil {
		t.Fatal(err)
	}
	rf, err := store.OpenRunFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	src := &stubSource{
		blocks:  map[string]*store.TermBlocks{},
		lists:   lists,
		numDocs: numDocs,
		docLens: docLens,
	}
	for slot, term := range terms {
		e, ok := rf.Find(0, uint32(slot))
		if !ok {
			t.Fatalf("stub run lost %q", term)
		}
		bl, err := rf.BlocksCtx(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		src.blocks[term] = &store.TermBlocks{Lists: []*store.BlockList{bl}}
	}
	return src
}

// TestTieKeepsSmallerDocAcrossBlockBoundary pins the tie-break where
// it is easiest to lose: documents 127 and 128 are the last posting of
// one block and the first of the next, with equal term frequencies and
// equal lengths, so their scores are equal to the bit. The smaller
// docID must win in both modes, under BM25 and TF-IDF, whether the
// pair competes for the last place (k = 1), fills the result (k = 2)
// or ties with the whole list (every document of the second term).
func TestTieKeepsSmallerDocAcrossBlockBoundary(t *testing.T) {
	const n = 2 * store.BlockLen
	head := &postings.List{DocIDs: make([]uint32, n), TFs: make([]uint32, n)}
	flat := &postings.List{DocIDs: make([]uint32, n), TFs: make([]uint32, n)}
	lens := make([]uint32, n)
	for i := range head.DocIDs {
		head.DocIDs[i], head.TFs[i] = uint32(i), 1
		flat.DocIDs[i], flat.TFs[i] = uint32(i), 2
		lens[i] = 40
	}
	head.TFs[store.BlockLen-1], head.TFs[store.BlockLen] = 7, 7
	lists := map[string]*postings.List{"w0x": head, "w1x": flat}
	for _, docLens := range [][]uint32{nil, lens} {
		src := newStubSource(t, n, docLens, lists)
		if nb := src.blocks["w0x"].Lists[0].NumBlocks(); nb != 2 {
			t.Fatalf("tie list stored as %d blocks, want 2", nb)
		}
		s := NewWithSource(src)
		if s.UsesBM25() != (docLens != nil) {
			t.Fatalf("UsesBM25 = %v with docLens %v", s.UsesBM25(), docLens != nil)
		}
		for _, mode := range []RankMode{RankAuto, RankExhaustive} {
			for _, q := range [][]string{{"w0x"}, {"w0x", "w1x"}} {
				got, err := s.TopKModeCtx(context.Background(), mode, 2, q...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 2 || got[0].Doc != store.BlockLen-1 || got[1].Doc != store.BlockLen ||
					got[0].Score != got[1].Score {
					t.Fatalf("%s %v bm25=%v k=2: %+v, want docs %d then %d at one score",
						mode, q, docLens != nil, got, store.BlockLen-1, store.BlockLen)
				}
				got, err = s.TopKModeCtx(context.Background(), mode, 1, q...)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != 1 || got[0].Doc != store.BlockLen-1 {
					t.Fatalf("%s %v bm25=%v k=1: %+v, want doc %d", mode, q, docLens != nil, got, store.BlockLen-1)
				}
			}
			// Every document of w1x scores the same: the best 130 are the
			// first 130, in docID order, straight through the boundary.
			got, err := s.TopKModeCtx(context.Background(), mode, store.BlockLen+2, "w1x")
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range got {
				if d.Doc != uint32(i) {
					t.Fatalf("%s all-tied list: result %d is doc %d", mode, i, d.Doc)
				}
			}
			if len(got) != store.BlockLen+2 {
				t.Fatalf("%s all-tied list: %d results", mode, len(got))
			}
		}
		if st := s.RankStats(); st.FallbackQueries != 0 {
			t.Fatalf("stub source fell back: %+v", st)
		}
	}
}

// TestTopKSteadyStateAllocs pins the search side's whole allocation
// budget: over a source whose fetches allocate nothing, a warm,
// untraced three-word query allocates its result slice and the
// normalized words — a small constant, whatever the lists' lengths and
// however many blocks are decoded — in both modes. And k is never a
// size: asking for every result there could be allocates what the
// matches need.
func TestTopKSteadyStateAllocs(t *testing.T) {
	const blocks = 64
	const n = blocks * store.BlockLen
	rng := rand.New(rand.NewSource(7))
	lists := map[string]*postings.List{}
	for w, stride := range []uint32{2, 3, 11} { // bitpack, bitpack, Elias-Fano
		l := &postings.List{DocIDs: make([]uint32, n), TFs: make([]uint32, n)}
		for i := range l.DocIDs {
			l.DocIDs[i] = uint32(i)*stride + uint32(w)
			l.TFs[i] = 1 + uint32(rng.Intn(9))
		}
		lists[fmt.Sprintf("w%dx", w)] = l
	}
	numDocs := int64(11*n + 3)
	lens := make([]uint32, numDocs)
	for i := range lens {
		lens[i] = 20 + uint32(rng.Intn(200))
	}
	src := newStubSource(t, numDocs, lens, lists)
	for term, tb := range src.blocks {
		if nb := tb.Lists[0].NumBlocks(); nb != blocks {
			t.Fatalf("%s stored as %d blocks, want %d", term, nb, blocks)
		}
	}
	s := NewWithSource(src)
	ctx := context.Background()
	words := []string{"w0x", "w1x", "w2x"}
	for _, mode := range []RankMode{RankAuto, RankExhaustive} {
		before := s.RankStats()
		allocs := testing.AllocsPerRun(20, func() {
			if res, err := s.TopKModeCtx(ctx, mode, 10, words...); err != nil || len(res) != 10 {
				t.Fatalf("%s: %d results, %v", mode, len(res), err)
			}
		})
		if allocs > 12 {
			t.Errorf("%s: %.0f allocations per warm 3-word query over %d-block lists, want <= 12", mode, allocs, blocks)
		}
		after := s.RankStats()
		if decoded := after.BlocksDecoded - before.BlocksDecoded; (mode == RankAuto) != (decoded > 21*blocks) {
			t.Errorf("%s decoded %d blocks over 21 queries", mode, decoded)
		}
	}

	// Every match, asked for with the largest k there is.
	all, err := s.Or(words...)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []RankMode{RankAuto, RankExhaustive} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		res, err := s.TopKModeCtx(ctx, mode, math.MaxInt32, words...)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(all) {
			t.Fatalf("%s k=MaxInt32: %d results, %d documents match", mode, len(res), len(all))
		}
		// The heap grows by doubling and the result is copied out of it:
		// a few times the matches' 16 bytes each, nowhere near k's 32 GiB.
		if got, limit := ms1.TotalAlloc-ms0.TotalAlloc, uint64(8*16*len(all)); got > limit {
			t.Errorf("%s k=MaxInt32 allocated %d bytes for %d results (limit %d)", mode, got, len(res), limit)
		}
	}
}
