package search

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"fastinvert/internal/benchindex"
	"fastinvert/internal/segment"
)

func benchSearcher(b *testing.B) (*Searcher, string, string) {
	b.Helper()
	idx, ref := buildIndex(b)
	freq, rare := pickTerms(ref)
	return New(idx), freq, rare
}

func BenchmarkPostingsLookup(b *testing.B) {
	s, freq, _ := benchSearcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Postings(freq); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAndQuery(b *testing.B) {
	s, freq, rare := benchSearcher(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.And(freq, rare); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopK is ranked retrieval on the shape the repository
// benchmark serves (benchindex.Build: serve_topk's and live_mixed's
// corpus), 2-3-word queries copied out of the documents, top 10. static
// is that collection built through the pipeline and merged with the
// self-tuned codec, read without a list cache; live is its first 2,700
// documents in a segment manager — five sealed segments, a 200-document
// memtable and one tombstone, so auto is the fallback most live_mixed
// queries take.
// Each reports ns, allocations, and blocks decoded and postings scored
// per query, and asserts no time.
func BenchmarkTopK(b *testing.B) {
	idx, docs := benchindex.Build(b)

	const liveDocs = 2700
	m, err := segment.Open(filepath.Join(b.TempDir(), "live"), segment.Options{Codec: "auto", SealEvery: 500})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	for _, d := range docs[:liveDocs] {
		if _, err := m.AddDocument(d); err != nil {
			b.Fatal(err)
		}
	}
	if err := m.Delete(liveDocs / 2); err != nil {
		b.Fatal(err)
	}

	for _, shape := range []struct {
		name string
		s    *Searcher
		docs [][]byte
	}{
		{"static", New(idx), docs},
		{"live", NewWithSource(m), docs[:liveDocs]},
	} {
		rng := rand.New(rand.NewSource(20110516))
		queries := make([][]string, 512)
		for i := range queries {
			queries[i] = benchindex.Words(rng, shape.docs, 2+rng.Intn(2))
		}
		for _, mode := range []RankMode{RankAuto, RankExhaustive} {
			b.Run(mode.String()+"/"+shape.name, func(b *testing.B) {
				ctx := context.Background()
				before := shape.s.RankStats()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := shape.s.TopKModeCtx(ctx, mode, 10, queries[i%len(queries)]...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				after := shape.s.RankStats()
				b.ReportMetric(float64(after.BlocksDecoded-before.BlocksDecoded)/float64(b.N), "blocks/query")
				b.ReportMetric(float64(after.PostingsScored-before.PostingsScored)/float64(b.N), "postings/query")
			})
		}
	}
}

// BenchmarkPostingsLookupMerged measures the same lookup after the
// post-processing merge: the reader answers from merged.post with one
// binary-searched table hit, one pread and one decode.
func BenchmarkPostingsLookupMerged(b *testing.B) {
	idx, ref := buildIndex(b)
	if _, err := idx.Merge(); err != nil {
		b.Fatal(err)
	}
	s := New(idx)
	freq, _ := pickTerms(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Postings(freq); err != nil {
			b.Fatal(err)
		}
	}
}
