package search

import (
	"path/filepath"
	"sort"
	"testing"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/reference"
	"fastinvert/internal/store"
)

// buildIndex constructs a small persisted index plus the reference
// term->postings map for brute-force comparison.
func buildIndex(t testing.TB) (*store.IndexReader, *reference.Index) {
	t.Helper()
	p := corpus.ClueWeb09(1)
	p.VocabSize = 3000
	p.DocsPerFile = 10
	p.MeanDocTokens = 60
	src := corpus.NewMemSource(corpus.NewGenerator(p), 3)

	ref, err := reference.BuildFromSource(src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Parsers = 2
	cfg.CPUIndexers = 1
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
	return idx, ref
}

// pickTerms returns frequent and rare indexed terms for querying.
func pickTerms(ref *reference.Index) (frequent, rare string) {
	best, worst := 0, 1<<30
	for term, l := range ref.Lists {
		if l.Len() > best {
			best, frequent = l.Len(), term
		}
		if l.Len() < worst && l.Len() > 0 {
			worst, rare = l.Len(), term
		}
	}
	return frequent, rare
}

func TestNormalizeMatchesIndexing(t *testing.T) {
	idx, _ := buildIndex(t)
	s := New(idx)
	term, stop := s.Normalize("Parallelized")
	if term != "parallel" || stop {
		t.Errorf("Normalize = %q stop=%v", term, stop)
	}
	if _, stop := s.Normalize("The"); !stop {
		t.Error("'the' must be a stop word")
	}
}

func TestPostingsMatchReference(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, rare := pickTerms(ref)
	for _, term := range []string{freq, rare} {
		l, err := s.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Lists[term]
		if l.Len() != want.Len() {
			t.Fatalf("%q: %d postings, want %d", term, l.Len(), want.Len())
		}
		for i := range want.DocIDs {
			if l.DocIDs[i] != want.DocIDs[i] || l.TFs[i] != want.TFs[i] {
				t.Fatalf("%q posting %d mismatch", term, i)
			}
		}
	}
}

func TestAndAgainstBruteForce(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, rare := pickTerms(ref)
	got, err := s.And(freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteAnd(ref, freq, rare)
	if !equalU32(got, want) {
		t.Fatalf("And = %v, want %v", got, want)
	}
	// AND with an unknown word is empty.
	got, err = s.And(freq, "zzzunknownzzz")
	if err != nil || got != nil {
		t.Fatalf("And with unknown = %v, %v", got, err)
	}
	// AND of only stop words is empty.
	got, err = s.And("the", "and")
	if err != nil || got != nil {
		t.Fatalf("And of stop words = %v, %v", got, err)
	}
}

func TestOrAgainstBruteForce(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, rare := pickTerms(ref)
	got, err := s.Or(freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteOr(ref, freq, rare)
	if !equalU32(got, want) {
		t.Fatalf("Or lengths: got %d want %d", len(got), len(want))
	}
}

func TestTopKProperties(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, rare := pickTerms(ref)
	res, err := s.TopK(5, freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || len(res) > 5 {
		t.Fatalf("TopK returned %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Errorf("results not descending at %d", i)
		}
	}
	// The top result must score at least as high as every scored doc.
	all, err := s.TopK(1<<20, freq, rare)
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Score != res[0].Score || all[0].Doc != res[0].Doc {
		t.Error("TopK(5) head differs from full ranking head")
	}
	if _, err := s.TopK(0, freq); err == nil {
		t.Error("k=0 must error")
	}
}

func TestBM25Active(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	if !s.UsesBM25() {
		t.Fatal("engine-built index must carry document lengths for BM25")
	}
	if got := len(idx.DocLens()); got != int(ref.Docs) {
		t.Fatalf("DocLens has %d entries, want %d", got, ref.Docs)
	}
	// Length sums must equal total surviving tokens.
	var sum int64
	for _, l := range idx.DocLens() {
		sum += int64(l)
	}
	if sum != ref.Tokens {
		t.Errorf("doc length sum %d, want %d tokens", sum, ref.Tokens)
	}
	// BM25 saturates tf: a doc's score contribution is bounded by
	// idf*(k1+1), so scores stay finite and ordered.
	freq, _ := pickTerms(ref)
	res, err := s.TopK(3, freq)
	if err != nil || len(res) == 0 {
		t.Fatalf("TopK: %v (%d results)", err, len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("BM25 results not descending")
		}
	}
}

func TestMatchPrefix(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	freq, _ := pickTerms(ref)
	prefix := freq[:2]
	got := s.MatchPrefix(prefix, 50)
	if len(got) == 0 {
		t.Fatalf("no terms match prefix %q", prefix)
	}
	// Results sorted, unique, all prefixed, and complete vs brute force.
	want := 0
	for term := range ref.Lists {
		if len(term) >= len(prefix) && term[:len(prefix)] == prefix {
			want++
		}
	}
	if want > 50 {
		want = 50
	}
	if len(got) != want {
		t.Errorf("MatchPrefix found %d terms, want %d", len(got), want)
	}
	for i, term := range got {
		if term[:len(prefix)] != prefix {
			t.Errorf("result %q lacks prefix", term)
		}
		if i > 0 && got[i] <= got[i-1] {
			t.Error("results not strictly sorted")
		}
	}
	if s.MatchPrefix(prefix, 0) != nil {
		t.Error("limit 0 must return nil")
	}
	if s.MatchPrefix("zzzzzzzz", 10) != nil {
		t.Error("unmatched prefix must return nil")
	}
}

func TestNumDocs(t *testing.T) {
	idx, ref := buildIndex(t)
	s := New(idx)
	if s.NumDocs() != ref.Docs {
		t.Errorf("NumDocs = %d, want %d", s.NumDocs(), ref.Docs)
	}
}

func bruteAnd(ref *reference.Index, terms ...string) []uint32 {
	counts := map[uint32]int{}
	for _, term := range terms {
		if l := ref.Lists[term]; l != nil {
			for _, d := range l.DocIDs {
				counts[d]++
			}
		}
	}
	var out []uint32
	for d, c := range counts {
		if c == len(terms) {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteOr(ref *reference.Index, terms ...string) []uint32 {
	seen := map[uint32]struct{}{}
	for _, term := range terms {
		if l := ref.Lists[term]; l != nil {
			for _, d := range l.DocIDs {
				seen[d] = struct{}{}
			}
		}
	}
	out := make([]uint32, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
