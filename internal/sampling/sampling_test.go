package sampling

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"strings"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/parser"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/trie"
)

// fileSource serves literal container files; names ending in .gz are
// gzip-compressed on the way in.
type fileSource struct {
	names  []string
	stored [][]byte
}

func newFileSource(t *testing.T, files ...string) *fileSource {
	t.Helper()
	if len(files)%2 != 0 {
		t.Fatal("newFileSource wants name, content pairs")
	}
	s := &fileSource{}
	for i := 0; i < len(files); i += 2 {
		name, content := files[i], []byte(files[i+1])
		if strings.HasSuffix(name, ".gz") {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(content); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			content = buf.Bytes()
		}
		s.names = append(s.names, name)
		s.stored = append(s.stored, content)
	}
	return s
}

func (s *fileSource) NumFiles() int         { return len(s.names) }
func (s *fileSource) FileName(i int) string { return s.names[i] }
func (s *fileSource) ReadFile(i int) ([]byte, bool, error) {
	return s.stored[i], strings.HasSuffix(s.names[i], ".gz"), nil
}

// docWord is the one word document d of docsOf repeats; its first three
// letters give every document (d < 676) its own trie collection.
func docWord(d int) string {
	return fmt.Sprintf("%c%cxword", 'a'+d/26, 'a'+d%26)
}

// docsOf joins n documents of size bytes each into one container.
func docsOf(n, size int) string {
	var docs []string
	for d := 0; d < n; d++ {
		word := docWord(d) + " "
		docs = append(docs, strings.Repeat(word, size/len(word)+1)[:size])
	}
	return strings.Join(docs, corpus.DocDelim)
}

func testSource() *corpus.MemSource {
	p := corpus.ClueWeb09(1)
	p.VocabSize = 8000
	p.DocsPerFile = 16
	p.MeanDocTokens = 80
	return corpus.NewMemSource(corpus.NewGenerator(p), 4)
}

func TestSampleCounts(t *testing.T) {
	c, err := Sample(testSource(), parser.New(nil), Config{Ratio: 0.5, PopularCount: 50})
	if err != nil {
		t.Fatal(err)
	}
	if c.Total <= 0 || c.FilesSeen != 4 {
		t.Fatalf("sample degenerate: %+v", c)
	}
	var sum int64
	for _, n := range c.Tokens {
		sum += n
	}
	if sum != c.Total {
		t.Errorf("token sum %d != total %d", sum, c.Total)
	}
	// Sampling a fraction must see fewer docs than the collection.
	if c.DocsSeen >= 4*16 {
		t.Errorf("sampled %d docs of %d", c.DocsSeen, 4*16)
	}
}

// TestSampleHeadByBytes pins the sample's definition: Ratio of each
// file's uncompressed bytes, from the head, in whole documents.
func TestSampleHeadByBytes(t *testing.T) {
	const docSize, numDocs = 10 << 10, 40
	content := docsOf(numDocs, docSize)
	for _, name := range []string{"a.txt", "a.txt.gz"} {
		src := newFileSource(t, name, content)
		c, err := Sample(src, parser.New(nil), Config{Ratio: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		// A quarter of 40 equal documents is 10; the tenth one's
		// delimiter falls just past the budget, so 9 are whole.
		if c.DocsSeen != 9 {
			t.Errorf("%s: sampled %d documents, want 9", name, c.DocsSeen)
		}
		if want := int64(len(content)+3) / 4; c.Bytes != want {
			t.Errorf("%s: inflated %d bytes, want %d", name, c.Bytes, want)
		}
		// Head, not stride: only the first nine documents' words.
		if c.Tokens[trie.IndexString(docWord(8))] == 0 || c.Tokens[trie.IndexString(docWord(9))] != 0 {
			t.Errorf("%s: sample is not the head of the file", name)
		}
	}
}

// TestSampleGrowsToFirstDocument covers a first document longer than
// the whole budget: the prefix grows until one document is whole.
func TestSampleGrowsToFirstDocument(t *testing.T) {
	for _, name := range []string{"a.txt", "a.txt.gz"} {
		src := newFileSource(t, name, docsOf(3, 100<<10))
		c, err := Sample(src, parser.New(nil), Config{Ratio: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		if c.DocsSeen != 1 {
			t.Errorf("%s: sampled %d documents, want exactly the first", name, c.DocsSeen)
		}
	}
}

// TestSampleSkipsEmptyFiles is the regression test for the stride
// sampler's divide by zero on a container file holding no document.
func TestSampleSkipsEmptyFiles(t *testing.T) {
	src := newFileSource(t,
		"a.txt", "   \n",
		"b.txt", "hello world",
		"c.txt.gz", "",
		"d.txt.gz", corpus.DocDelim+" \t\n"+corpus.DocDelim,
		"e.txt", "")
	c, err := Sample(src, parser.New(nil), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.FilesSeen != 5 || c.DocsSeen != 1 || c.Total != 2 {
		t.Errorf("files %d docs %d tokens %d, want 5 / 1 / 2", c.FilesSeen, c.DocsSeen, c.Total)
	}
}

// TestSampleUsesCallersParser: the counts must weigh collections with
// the stop list the indexers will see, or the LPT balance of CPUSets is
// computed on the wrong numbers.
func TestSampleUsesCallersParser(t *testing.T) {
	src := newFileSource(t, "a.txt", "the cat and the dog saw the bird")
	the := trie.IndexString("the")
	withStops, err := Sample(src, parser.New(nil), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	noStops, err := Sample(src, parser.New(stopwords.NewSet([]string{})), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if withStops.Tokens[the] != 0 {
		t.Errorf("default stop list let %d \"the\" tokens through", withStops.Tokens[the])
	}
	if noStops.Tokens[the] != 3 {
		t.Errorf("empty stop list: collection of \"the\" has %d tokens, want 3", noStops.Tokens[the])
	}
}

func TestSampleDeterministic(t *testing.T) {
	a, err := Sample(testSource(), parser.New(nil), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sample(testSource(), parser.New(nil), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Error("sampling not deterministic")
	}
}

func TestAssignPartitionsEverything(t *testing.T) {
	c, err := Sample(testSource(), parser.New(nil), Config{Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(c, 2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Popular) == 0 || len(a.Popular) > 100 {
		t.Fatalf("popular = %d", len(a.Popular))
	}
	// Every collection has exactly one owner; popular ones are CPU.
	popSet := map[int]bool{}
	for _, p := range a.Popular {
		popSet[p] = true
	}
	for coll := 0; coll < trie.NumCollections; coll++ {
		kind, idx := a.Owner(coll)
		switch kind {
		case KindCPU:
			if idx < 0 || idx >= 2 {
				t.Fatalf("collection %d: bad CPU index %d", coll, idx)
			}
			if !popSet[coll] {
				t.Fatalf("unpopular collection %d on CPU with GPUs present", coll)
			}
		case KindGPU:
			if popSet[coll] {
				t.Fatalf("popular collection %d on GPU", coll)
			}
			if idx != coll%2 {
				t.Fatalf("collection %d on GPU %d, want %d (i mod N)", coll, idx, coll%2)
			}
		}
	}
	// CPU sets are disjoint and cover the popular set.
	seen := map[int]bool{}
	total := 0
	for _, set := range a.CPUSets {
		for _, coll := range set {
			if seen[coll] {
				t.Fatalf("collection %d in two CPU sets", coll)
			}
			seen[coll] = true
			total++
		}
	}
	if total != len(a.Popular) {
		t.Errorf("CPU sets hold %d, popular %d", total, len(a.Popular))
	}
}

// TestPaperModExample reproduces §III.E's worked example: unpopular
// indices (0,13,27,175,384,5810,10041,17316) over two GPUs.
func TestPaperModExample(t *testing.T) {
	var c Counts
	// Make a few other collections popular so the listed ones stay
	// unpopular.
	c.Tokens[trie.IndexString("theory")] = 100
	a, err := Assign(&c, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantGPU0 := []int{0, 384, 5810, 17316}
	wantGPU1 := []int{13, 27, 175, 10041}
	for _, coll := range wantGPU0 {
		if kind, idx := a.Owner(coll); kind != KindGPU || idx != 0 {
			t.Errorf("collection %d: got (%v,%d), want GPU 0", coll, kind, idx)
		}
	}
	for _, coll := range wantGPU1 {
		if kind, idx := a.Owner(coll); kind != KindGPU || idx != 1 {
			t.Errorf("collection %d: got (%v,%d), want GPU 1", coll, kind, idx)
		}
	}
}

func TestAssignNoGPUSpreadsOverCPUs(t *testing.T) {
	c, err := Sample(testSource(), parser.New(nil), Config{Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(c, 3, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for coll := 0; coll < trie.NumCollections; coll++ {
		kind, idx := a.Owner(coll)
		if kind != KindCPU || idx < 0 || idx >= 3 {
			t.Fatalf("collection %d: (%v,%d) with no GPUs", coll, kind, idx)
		}
	}
}

func TestAssignBalance(t *testing.T) {
	c, err := Sample(testSource(), parser.New(nil), Config{Ratio: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(c, 2, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bal := CPULoadBalance(a, c); bal > 1.6 {
		t.Errorf("CPU token balance %.2f too skewed", bal)
	}
}

func TestAssignErrors(t *testing.T) {
	var c Counts
	if _, err := Assign(&c, 0, 0, 10); err == nil {
		t.Error("zero indexers must fail")
	}
	if _, err := Assign(&c, -1, 2, 10); err == nil {
		t.Error("negative CPU count must fail")
	}
}

func TestAssignGPUOnly(t *testing.T) {
	// Table IV scenario (i): no CPU indexers, everything on the GPUs.
	var c Counts
	c.Tokens[100] = 50
	a, err := Assign(&c, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Popular) != 0 {
		t.Error("GPU-only assignment has no CPU-popular set")
	}
	for coll := 0; coll < trie.NumCollections; coll += 511 {
		kind, idx := a.Owner(coll)
		if kind != KindGPU || idx != coll%2 {
			t.Fatalf("collection %d: (%v,%d)", coll, kind, idx)
		}
	}
}
