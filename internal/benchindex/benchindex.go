// Package benchindex builds, for the go-test microbenchmarks, the
// collection and the index the repository benchmark serves
// (bench/workloads.go: serve_topk, serve_bool and live_mixed), and
// samples query words from it the way the benchmark's generator does.
// Only tests import it.
package benchindex

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/store"
)

// Build generates the Wikipedia-profile collection at the benchmark's
// size (24 files at scale 3), builds it through the concurrent pipeline
// and merges it with the self-tuned codec. The reader comes back
// without a list cache of its own, so a cache above it is the only one;
// it is closed when the test ends. docs is the collection's documents
// in docID order.
func Build(tb testing.TB) (idx *store.IndexReader, docs [][]byte) {
	tb.Helper()
	src := corpus.NewMemSource(corpus.NewGenerator(corpus.Wikipedia0107(3)), 24).Materialize()
	for i := 0; i < src.NumFiles(); i++ {
		stored, compressed, err := src.ReadFile(i)
		if err != nil {
			tb.Fatal(err)
		}
		plain, err := corpus.Decompress(stored, compressed)
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, corpus.SplitDocs(plain)...)
	}

	cfg := core.DefaultConfig()
	cfg.Concurrent = true
	cfg.OutDir = filepath.Join(tb.TempDir(), "idx")
	eng, err := core.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		tb.Fatal(err)
	}
	idx, err = store.OpenIndexWith(cfg.OutDir, store.ReaderOptions{MergeCodec: "auto", CacheBytes: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { idx.Close() })
	if _, err := idx.Merge(); err != nil {
		tb.Fatal(err)
	}
	return idx, docs
}

// Words draws n words out of the documents' own text the way the
// repository benchmark's query sampler does (bench/inputs.go): a
// random document, a random position in it, then the first whole
// alphabetic word of three letters or more after that position — so
// word popularity follows the corpus's own law.
func Words(rng *rand.Rand, docs [][]byte, n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		doc := docs[rng.Intn(len(docs))]
		tail := doc[rng.Intn(len(doc)):]
		sp := bytes.IndexAny(tail, " \n")
		if sp < 0 {
			continue
		}
		var words []string
		for _, f := range bytes.Fields(tail[sp:min(len(tail), sp+64)]) {
			notLetter := func(r rune) bool { return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') }
			if len(f) >= 3 && bytes.IndexFunc(f, notLetter) < 0 {
				words = append(words, string(f))
			}
		}
		// The window's last word may be cut short, so it is never taken.
		if len(words) > 1 {
			out = append(out, words[0])
		}
	}
	return out
}
