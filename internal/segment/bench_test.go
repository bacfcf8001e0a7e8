package segment

import (
	"runtime"
	"testing"

	"fastinvert/internal/corpus"
)

// BenchmarkAddDocument is live ingest on the repository benchmark's
// live_mixed shape: Wikipedia-profile documents added one at a time
// to a manager sealing every 500, so every 500th add freezes a
// memtable and the seals run behind the writer. It reports time and
// allocations per document — the seals' share included, whichever
// goroutine made them — and asserts no time.
func BenchmarkAddDocument(b *testing.B) {
	gen := corpus.NewGenerator(corpus.Wikipedia0107(3))
	var docs [][]byte
	for f := 0; len(docs) < 2000; f++ {
		docs = append(docs, corpus.SplitDocs(gen.GeneratePlain(f))...)
	}
	m, err := Open(b.TempDir(), Options{Codec: "auto", SealEvery: 500})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.AddDocument(docs[i%len(docs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/doc")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/doc")
}
