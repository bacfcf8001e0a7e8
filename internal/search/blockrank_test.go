package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
// upper-bound every term frequency in the block, its stored impact
// must be safe (q/255 at least the largest tf/(tf + k1*norm) of its
// postings) and tight (within one 1/255 quantum of it), and the score
// bound the evaluator derives from the block must upper-bound the
// exhaustive contribution of every posting in it.
func TestBlockBoundsProperty(t *testing.T) {
	idx, ref := buildBlockedIndex(t)
	s := New(idx)
	if !s.UsesBM25() {
		t.Fatal("static index should carry doc lengths (BM25)")
	}
	numDocs := s.NumDocs()
	blocked := 0
	for term := range ref.Lists {
		tb, err := idx.BlockPostingsCtx(context.Background(), term)
		if err != nil {
			t.Fatal(err)
		}
		if tb == nil || tb.Len() == 0 {
			t.Fatalf("%q: no block view", term)
		}
		df := float64(tb.Len())
		idf := math.Log(1 + (float64(numDocs)-df+0.5)/(df+0.5))
		for _, bl := range tb.Lists {
			if bl.NumBlocks() > 1 {
				blocked++
				if bl.AvgRef() != s.avgLen {
					t.Fatalf("%q: impacts written against average %v, collection's is %v", term, bl.AvgRef(), s.avgLen)
				}
			}
			ub := s.impactBound(idf, bl.MaxTF())
			for b := 0; b < bl.NumBlocks(); b++ {
				sk := bl.Skip(b)
				docs, tfs, err := bl.DecodeBlock(b)
				if err != nil {
					t.Fatal(err)
				}
				if len(docs) != int(sk.Count) {
					t.Fatalf("%q block %d: %d postings, skip says %d", term, b, len(docs), sk.Count)
				}
				if bl.NumBlocks() > 1 && sk.Impact == 0 {
					t.Fatalf("%q block %d: merged with lengths but no impact stored", term, b)
				}
				bound := s.blockBound(idf, ub, bl, b)
				c := blockCursor{idf: idf}
				sat := 0.0
				for i, doc := range docs {
					if tfs[i] > sk.MaxTF {
						t.Fatalf("%q block %d: tf %d exceeds stored MaxTF %d", term, b, tfs[i], sk.MaxTF)
					}
					f := float64(tfs[i])
					sat = max(sat, f/(f+bm25K1*(1-bm25B+bm25B*float64(s.docLens[doc])/s.avgLen)))
					c.curTF = tfs[i]
					if contrib := s.contribution(&c, doc); !boundExceeds(bound, contrib) {
						t.Fatalf("%q block %d doc %d: contribution %v exceeds bound %v",
							term, b, doc, contrib, bound)
					}
				}
				if q := float64(sk.Impact) / 255; sk.Impact != 0 && (q < sat*(1-1e-12) || q-sat >= 1.0/255) {
					t.Fatalf("%q block %d: impact %d/255 = %v for a largest saturation of %v", term, b, sk.Impact, q, sat)
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
// file with blocks enabled, codec self-selected, impacts computed
// against docLens — and reads it back as the stored skip table plus
// undecoded bodies, so a cursor over the stub decodes real blocks.
// docLens may be nil (TF-IDF, no impacts); the searcher sees the same
// lengths unless the caller replaces the stub's docLens afterwards.
//
// splits cut the docID space into parts, [0, splits[0]), [splits[0],
// splits[1]), …, each written to a run file of its own, the way sealed
// segments hold one term: a term's view is then one list per part it
// occurs in, blocked where a part holds enough of its postings and an
// exact pseudo-block where it does not.
func newStubSource(t testing.TB, numDocs int64, docLens []uint32, lists map[string]*postings.List, splits ...uint32) *stubSource {
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
	src := &stubSource{
		blocks:  map[string]*store.TermBlocks{},
		lists:   lists,
		numDocs: numDocs,
		docLens: docLens,
	}
	for _, term := range terms {
		src.blocks[term] = &store.TermBlocks{}
	}
	bounds := append(append([]uint32{0}, splits...), math.MaxUint32)
	for p := 0; p+1 < len(bounds); p++ {
		lo, hi := bounds[p], bounds[p+1]
		b := store.NewRunBuilderCodec(sel)
		b.EnableBlocks()
		b.SetDocLens(docLens)
		for slot, term := range terms {
			l := lists[term]
			i := sort.Search(l.Len(), func(i int) bool { return l.DocIDs[i] >= lo })
			j := sort.Search(l.Len(), func(j int) bool { return l.DocIDs[j] >= hi })
			if err := b.AddList(0, int32(slot), l.DocIDs[i:j], l.TFs[i:j]); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("stub%d.post", p))
		if err := os.WriteFile(path, b.Finalize(lo, uint32(min(uint64(hi)-1, uint64(numDocs-1)))), 0o644); err != nil {
			t.Fatal(err)
		}
		rf, err := store.OpenRunFile(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for slot, term := range terms {
			e, ok := rf.Find(0, uint32(slot))
			if !ok {
				continue
			}
			bl, err := rf.BlocksCtx(context.Background(), e)
			if err != nil {
				t.Fatal(err)
			}
			src.blocks[term].Lists = append(src.blocks[term].Lists, bl)
		}
		rf.Close()
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

// TestBlockMaxMatchesExhaustiveAdversarial tries to break the window
// pruning with what its bounds rest on. Lengths: a few very short
// documents among long ones, and documents past the writer's length
// table (norm 1 on both sides). Drift: the searcher's average above
// and below the one the impacts were written against — the searcher
// knows lengths for documents the files hold no postings of, as a
// collection that grew since its merge does — and TF-IDF. Layout: Zipf
// -ish densities from a list of two blocks' worth to one short enough
// to be a pseudo-block, and the docID space cut into one to three
// parts the way sealed segments cut it, once exactly where one term's
// second block ends, so a window can close on a part boundary. Every
// query at every k must come back bitwise equal to the exhaustive
// scorer's answer.
func TestBlockMaxMatchesExhaustiveAdversarial(t *testing.T) {
	const (
		nLen    = 1500             // the writer's length table
		gap     = 200              // lengths only the searcher knows; no postings
		numDocs = nLen + gap + 300 // the last 300 lie past both tables
	)
	rng := rand.New(rand.NewSource(46))
	queries := [][]string{
		{"w0x"}, {"w1x"}, {"w2x"}, {"w3x"},
		{"w0x", "w1x"}, {"w1x", "w2x"}, {"w0x", "w3x"}, {"w2x", "w3x"},
		{"w0x", "w1x", "w2x"}, {"w0x", "w1x", "w2x", "w3x"},
		{"w1x", "w1x", "w3x"},
	}
	var skipped uint64
	for trial := 0; trial < 24; trial++ {
		lens := make([]uint32, nLen)
		for i := range lens {
			lens[i] = uint32(50 + rng.Intn(250))
			if rng.Intn(40) == 0 {
				lens[i] = uint32(1 + rng.Intn(3))
			}
		}
		lists := map[string]*postings.List{}
		for w, p := range []float64{0.7, 0.25, 0.05, 0.012} {
			l := &postings.List{}
			for d := 0; d < numDocs; d++ {
				if d >= nLen && d < nLen+gap || rng.Float64() >= p {
					continue
				}
				tf := 1 + rng.Intn(3)
				if rng.Intn(60) == 0 {
					tf = 10 + rng.Intn(40)
				}
				l.DocIDs = append(l.DocIDs, uint32(d))
				l.TFs = append(l.TFs, uint32(tf))
			}
			lists[fmt.Sprintf("w%dx", w)] = l
		}
		var splits []uint32
		switch trial % 3 {
		case 1:
			// The first part ends on w0x's second block's last posting.
			splits = []uint32{lists["w0x"].DocIDs[2*store.BlockLen]}
		case 2:
			a, b := uint32(1+rng.Intn(numDocs-2)), uint32(1+rng.Intn(numDocs-2))
			if a > b {
				a, b = b, a
			}
			if a != b {
				splits = []uint32{a, b}
			}
		}
		drift := trial % 4
		writerLens := lens
		if drift == 3 {
			writerLens = nil // TF-IDF: no lengths, no impacts
		}
		src := newStubSource(t, numDocs, writerLens, lists, splits...)
		if drift == 1 || drift == 2 {
			extra := uint32(2000)
			if drift == 2 {
				extra = 1
			}
			src.docLens = slices.Clone(lens)
			for i := 0; i < gap; i++ {
				src.docLens = append(src.docLens, extra)
			}
		}
		s := NewWithSource(src)
		if ref := store.AvgDocLen(writerLens); (drift == 1) != (s.avgLen > ref) || (drift == 2) != (s.avgLen < ref && s.UsesBM25()) {
			t.Fatalf("trial %d: drift %d gives searcher average %v against %v", trial, drift, s.avgLen, ref)
		}
		for _, q := range queries {
			for _, k := range []int{1, 3, 10, 40} {
				want, err := s.TopKModeCtx(context.Background(), RankExhaustive, k, q...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.TopKModeCtx(context.Background(), RankAuto, k, q...)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResults(t, fmt.Sprintf("trial %d drift %d splits %v %v k=%d", trial, drift, splits, q, k), got, want)
			}
		}
		st := s.RankStats()
		if st.FallbackQueries != 0 {
			t.Fatalf("trial %d: %d fallbacks", trial, st.FallbackQueries)
		}
		skipped += st.BlocksSkipped
	}
	if skipped == 0 {
		t.Error("no trial skipped a block: the pruning under test never ran")
	}
}

// TestBlockBoundFindsLoneShortDoc: one short document with a high tf
// inside a block of long tf-1 documents is what a bound from the
// block's maxTF and the collection's shortest length cannot tell from
// its neighbours, and what a stored impact must not hide. The block
// holding it has to be entered and the document returned; the weak
// block after it, skipped.
func TestBlockBoundFindsLoneShortDoc(t *testing.T) {
	const n = 3 * store.BlockLen
	const lone = store.BlockLen + 77
	l := &postings.List{DocIDs: make([]uint32, n), TFs: make([]uint32, n)}
	lens := make([]uint32, n)
	for i := range l.DocIDs {
		l.DocIDs[i], l.TFs[i], lens[i] = uint32(i), 1, 300
	}
	l.TFs[lone], lens[lone] = 9, 2
	src := newStubSource(t, 4*n, lens, map[string]*postings.List{"w0x": l})
	bl := src.blocks["w0x"].Lists[0]
	if bl.NumBlocks() != 3 || bl.Skip(1).Impact <= 2*bl.Skip(0).Impact || bl.Skip(2).Impact != bl.Skip(0).Impact {
		t.Fatalf("impacts %d %d %d do not single out the lone document's block",
			bl.Skip(0).Impact, bl.Skip(1).Impact, bl.Skip(2).Impact)
	}
	s := NewWithSource(src)
	want, err := s.TopKModeCtx(context.Background(), RankExhaustive, 1, "w0x")
	if err != nil {
		t.Fatal(err)
	}
	before := s.RankStats()
	got, err := s.TopKModeCtx(context.Background(), RankAuto, 1, "w0x")
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, "lone short document", got, want)
	if got[0].Doc != lone {
		t.Fatalf("top document %d, want %d", got[0].Doc, lone)
	}
	after := s.RankStats()
	if dec, skp := after.BlocksDecoded-before.BlocksDecoded, after.BlocksSkipped-before.BlocksSkipped; dec != 2 || skp != 1 {
		t.Errorf("decoded %d blocks and skipped %d, want 2 and 1", dec, skp)
	}
}

// TestTieWithThetaAtWindowEdge: every posting of w0x scores the same
// to the bit, so once the heap is full theta equals the score of every
// document still to come, and the block bounds above it are within a
// rounding quantum of it. At k = BlockLen the heap fills on the last
// posting of the first window, so the tie sits exactly on the window
// edge. w1x covers a stretch of the second block, which lifts those
// documents over the tie in the two-word query. No tied document may
// displace a smaller docID, and every answer is the exhaustive one.
func TestTieWithThetaAtWindowEdge(t *testing.T) {
	const n = 3 * store.BlockLen
	flat := &postings.List{DocIDs: make([]uint32, n), TFs: make([]uint32, n)}
	lens := make([]uint32, n)
	for i := range flat.DocIDs {
		flat.DocIDs[i], flat.TFs[i], lens[i] = uint32(i), 2, 40
	}
	lift := &postings.List{}
	for d := store.BlockLen + 10; d < store.BlockLen+30; d++ {
		lift.DocIDs = append(lift.DocIDs, uint32(d))
		lift.TFs = append(lift.TFs, 1)
	}
	lists := map[string]*postings.List{"w0x": flat, "w1x": lift}
	for _, docLens := range [][]uint32{nil, lens} {
		s := NewWithSource(newStubSource(t, n, docLens, lists))
		for _, k := range []int{store.BlockLen - 1, store.BlockLen, store.BlockLen + 1, 2 * store.BlockLen} {
			for _, q := range [][]string{{"w0x"}, {"w0x", "w1x"}} {
				want, err := s.TopKModeCtx(context.Background(), RankExhaustive, k, q...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.TopKModeCtx(context.Background(), RankAuto, k, q...)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("bm25=%v %v k=%d", docLens != nil, q, k)
				assertSameResults(t, label, got, want)
				if len(q) == 1 {
					for i, d := range got {
						if d.Doc != uint32(i) {
							t.Fatalf("%s: result %d is doc %d", label, i, d.Doc)
						}
					}
				}
			}
		}
	}
}
