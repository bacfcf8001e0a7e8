package cpuindexer

import (
	"testing"

	"fastinvert/internal/corpus"
)

// BenchmarkIndexRun indexes parsed ClueWeb files into a dictionary
// that already holds their terms — where an indexer spends its life
// once the first files have gone by — in the two shapes production
// feeds it: a whole file's groups per run (the build, which resets the
// postings after every run) and one document per run (the live
// memtable, which keeps them until it seals).
func BenchmarkIndexRun(b *testing.B) {
	gen := corpus.NewGenerator(corpus.ClueWeb09(4))
	for _, shape := range []struct {
		name   string
		perDoc bool
	}{{"file", false}, {"doc", true}} {
		b.Run(shape.name, func(b *testing.B) {
			var runs []run
			var tokens int64
			for file := 0; file < 2; file++ {
				runs = append(runs, parsedRuns(b, gen, file, false, shape.perDoc, uint32(file)<<16)...)
			}
			for _, rn := range runs {
				for _, g := range rn.groups {
					tokens += int64(g.Tokens)
				}
			}
			ix := New()
			pass := func() {
				for _, rn := range runs {
					if _, err := ix.IndexRun(rn.groups, rn.docBase); err != nil {
						b.Fatal(err)
					}
					if !shape.perDoc {
						ix.ResetRunPostings()
					}
				}
				ix.ResetRunPostings()
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(tokens)*float64(b.N)/b.Elapsed().Seconds(), "tokens/s")
		})
	}
}
