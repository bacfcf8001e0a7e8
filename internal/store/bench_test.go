package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fastinvert/internal/trie"
)

func benchLists(n int) (colls []int, slots []int32, docs [][]uint32, tfs [][]uint32) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		colls = append(colls, rng.Intn(17613))
		slots = append(slots, int32(i))
		m := 1 + rng.Intn(64)
		d := make([]uint32, m)
		f := make([]uint32, m)
		cur := uint32(0)
		for j := 0; j < m; j++ {
			cur += uint32(rng.Intn(100)) + 1
			d[j] = cur
			f[j] = uint32(rng.Intn(8)) + 1
		}
		docs = append(docs, d)
		tfs = append(tfs, f)
	}
	return
}

func BenchmarkRunBuild(b *testing.B) {
	colls, slots, docs, tfs := benchLists(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb := NewRunBuilder()
		for j := range colls {
			if err := rb.AddList(colls[j], slots[j], docs[j], tfs[j]); err != nil {
				b.Fatal(err)
			}
		}
		rb.Finalize(0, 1<<30)
	}
}

func BenchmarkRunParse(b *testing.B) {
	colls, slots, docs, tfs := benchLists(2000)
	rb := NewRunBuilder()
	for j := range colls {
		rb.AddList(colls[j], slots[j], docs[j], tfs[j])
	}
	data := rb.Finalize(0, 1<<30)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := openRunBytes(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDictionaryWrite(b *testing.B) {
	var entries []DictEntry
	for i := 0; i < 5000; i++ {
		entries = append(entries, DictEntry{
			Term:       fmt.Sprintf("term%06d", i),
			Collection: int32(i % 17613),
			Slot:       int32(i),
		})
	}
	SortDictEntries(entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteDictionary(&buf, entries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDictionaryRead(b *testing.B) {
	var entries []DictEntry
	for i := 0; i < 5000; i++ {
		entries = append(entries, DictEntry{
			Term:       fmt.Sprintf("term%06d", i),
			Collection: int32(i % 17613),
			Slot:       int32(i),
		})
	}
	SortDictEntries(entries)
	var buf bytes.Buffer
	WriteDictionary(&buf, entries)
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDictionary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// buildBenchIndex writes a benchIndex-sized multi-run index to a temp
// dir for read-path benchmarks.
func buildBenchIndex(b *testing.B, nRuns, termsPerRun int) (string, []string) {
	b.Helper()
	dir := b.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		b.Fatal(err)
	}
	var terms []string
	var dict []DictEntry
	for t := 0; t < termsPerRun; t++ {
		term := fmt.Sprintf("term%04d", t)
		terms = append(terms, term)
		dict = append(dict, DictEntry{Term: term, Collection: int32(trie.IndexString(term)), Slot: int32(t)})
	}
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < nRuns; r++ {
		rb := NewRunBuilder()
		base := uint32(r * 1000)
		for t := 0; t < termsPerRun; t++ {
			n := 1 + rng.Intn(32)
			docs := make([]uint32, n)
			tfs := make([]uint32, n)
			cur := base
			for j := 0; j < n; j++ {
				cur += uint32(rng.Intn(20)) + 1
				docs[j] = cur
				tfs[j] = uint32(rng.Intn(5)) + 1
			}
			if err := rb.AddList(trie.IndexString(terms[t]), int32(t), docs, tfs); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.WriteRun(rb, base, base+999); err != nil {
			b.Fatal(err)
		}
	}
	SortDictEntries(dict)
	if err := w.Finish(dict); err != nil {
		b.Fatal(err)
	}
	return dir, terms
}

// BenchmarkPostingsPerRun measures a term fetch assembled from partial
// lists across run files, caching disabled so each op pays real reads.
func BenchmarkPostingsPerRun(b *testing.B) {
	dir, terms := buildBenchIndex(b, 8, 200)
	idx, err := OpenIndexWith(dir, ReaderOptions{CacheBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := idx.Postings(terms[i%len(terms)])
		if err != nil || l.Len() == 0 {
			b.Fatalf("postings: %v len=%d", err, l.Len())
		}
	}
}

// BenchmarkPostingsMerged measures the same fetch from the merged file
// — one binary-searched table hit, one pread, one decode.
func BenchmarkPostingsMerged(b *testing.B) {
	dir, terms := buildBenchIndex(b, 8, 200)
	{
		m, err := OpenIndex(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Merge(); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
	idx, err := OpenIndexWith(dir, ReaderOptions{CacheBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	if !idx.MergedActive() {
		b.Fatal("merged not active")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := idx.Postings(terms[i%len(terms)])
		if err != nil || l.Len() == 0 {
			b.Fatalf("postings: %v len=%d", err, l.Len())
		}
	}
}

// BenchmarkMerge merges twelve runs laid out as a build writes them —
// four key-ordered regions each — from a fresh reader every time, so
// an operation pays what hetindex -merge pays: opening and checksumming
// the runs, ordering their tables, the sharded merge, the write and
// the reload. ns/list is over output lists; reads/op are the merge's
// positioned reads (MergeStats.ReadCalls).
func BenchmarkMerge(b *testing.B) {
	dir := writeLayoutIndex(b, layoutRuns(12, 600), 0, fourRegions)
	var lists, reads int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, err := OpenIndex(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		stats, err := idx.Merge()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		idx.Close()
		lists += int64(stats.Lists)
		reads += stats.ReadCalls
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(lists), "ns/list")
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
}
