package fastinvert_test

import (
	"os"
	"path/filepath"
	"testing"

	"fastinvert"
	"fastinvert/internal/gpu"
)

func smallOptions() fastinvert.Options {
	opts := fastinvert.DefaultOptions()
	opts.Parsers = 2
	opts.CPUIndexers = 1
	opts.GPUs = 1
	g := gpu.TeslaC1060()
	g.SMs = 4
	g.DeviceMemBytes = 64 << 20
	opts.GPU = g
	opts.Sampling.Ratio = 0.2
	return opts
}

func smallProfile() fastinvert.Profile {
	p := fastinvert.ClueWeb09Profile(1)
	p.VocabSize = 4000
	p.DocsPerFile = 8
	p.MeanDocTokens = 60
	return p
}

func TestPublicAPIEndToEnd(t *testing.T) {
	src := fastinvert.GenerateCorpus(smallProfile(), 3)
	opts := smallOptions()
	opts.OutDir = filepath.Join(t.TempDir(), "idx")
	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.Build(src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Docs != 24 || rep.Terms == 0 {
		t.Fatalf("report: docs=%d terms=%d", rep.Docs, rep.Terms)
	}

	idx, err := fastinvert.Open(opts.OutDir)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Terms() != int(rep.Terms) {
		t.Errorf("index terms %d, report %d", idx.Terms(), rep.Terms)
	}
	// The Zipf head guarantees "the"-like stems appear; look up the
	// most common dictionary entry round-tripped through Postings.
	var anyTerm string
	for _, e := range idx.Dictionary() {
		anyTerm = e.Term
		break
	}
	l, err := idx.Postings(anyTerm)
	if err != nil || l.Len() == 0 {
		t.Fatalf("Postings(%q): %v len=%d", anyTerm, err, l.Len())
	}
}

func TestNormalizeTerm(t *testing.T) {
	cases := map[string]string{
		"Parallelized": "parallel",
		"INDEXING":     "index",
		"the":          "the",
	}
	for in, want := range cases {
		if got := fastinvert.NormalizeTerm(in); got != want {
			t.Errorf("NormalizeTerm(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTrieIndexExposed(t *testing.T) {
	if fastinvert.NumTrieCollections != 17613 {
		t.Fatal("trie table size")
	}
	if fastinvert.TrieIndex("application") == fastinvert.TrieIndex("zebra") {
		t.Error("distinct prefixes must map to distinct collections")
	}
}

func TestWriteAndOpenCorpusDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	n, err := fastinvert.WriteCorpus(smallProfile(), 2, dir)
	if err != nil || n <= 0 {
		t.Fatalf("WriteCorpus: %v (%d)", err, n)
	}
	src, err := fastinvert.OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumFiles() != 2 {
		t.Errorf("NumFiles = %d", src.NumFiles())
	}
}

// TestBuildCorpusWithEmptyFile is the regression test for the sampling
// phase's divide by zero on a container file that holds no document
// (printf '   \n' > c/a.txt; printf 'hello world' > c/b.txt), and for the
// index check's refusal of the empty run such a file leaves between two
// others.
func TestBuildCorpusWithEmptyFile(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"a.txt": "   \n", "b.txt": "hello world", "c.txt": "", "d.txt": "hello again"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := fastinvert.OpenCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, concurrent := range []bool{false, true} {
		opts := smallOptions()
		opts.Concurrent = concurrent
		opts.OutDir = filepath.Join(t.TempDir(), "idx")
		b, err := fastinvert.NewBuilder(opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := b.Build(src)
		if err != nil {
			t.Fatalf("concurrent=%v: %v", concurrent, err)
		}
		if rep.Files != 4 || rep.Docs != 2 || rep.Tokens != 3 || rep.SampledDocs != 2 {
			t.Errorf("concurrent=%v: files %d docs %d tokens %d sampled %d, want 4 / 2 / 3 / 2",
				concurrent, rep.Files, rep.Docs, rep.Tokens, rep.SampledDocs)
		}
		if _, err := fastinvert.VerifyIndex(opts.OutDir); err != nil {
			t.Errorf("concurrent=%v: %v", concurrent, err)
		}
		idx, err := fastinvert.Open(opts.OutDir)
		if err != nil {
			t.Fatal(err)
		}
		l, err := idx.Postings("hello")
		idx.Close()
		if err != nil || l.Len() != 2 {
			t.Errorf("concurrent=%v: Postings(hello): %v", concurrent, err)
		}
	}
}

func TestParseOnlyPublic(t *testing.T) {
	b, err := fastinvert.NewBuilder(smallOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := b.ParseOnly(fastinvert.GenerateCorpus(smallProfile(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalSec <= 0 {
		t.Error("parse-only timing missing")
	}
}
