package experiments

import (
	"fmt"
	"io"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
)

// TableIIIRow is one collection's statistics (paper Table III).
type TableIIIRow struct {
	Name             string
	CompressedSize   int64
	UncompressedSize int64
	Documents        int64
	Terms            int64
	Tokens           int64
}

// TableIII computes collection statistics for the three synthetic
// collections.
func TableIII(s Scale) ([]TableIIIRow, error) {
	srcs := []struct {
		name string
		src  corpus.Source
	}{
		{"ClueWeb09-like", ClueWebSource(s)},
		{"Wikipedia01-07-like", WikipediaSource(s)},
		{"LibraryOfCongress-like", LibraryOfCongressSource(s)},
	}
	var rows []TableIIIRow
	for _, c := range srcs {
		st, err := corpus.ComputeStats(c.src)
		if err != nil {
			return nil, err
		}
		rows = append(rows, TableIIIRow{
			Name:             c.name,
			CompressedSize:   st.CompressedSize,
			UncompressedSize: st.UncompressedSize,
			Documents:        st.Documents,
			Terms:            st.Terms,
			Tokens:           st.Tokens,
		})
	}
	return rows, nil
}

// FprintTableIII renders Table III.
func FprintTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintf(w, "TABLE III. STATISTICS OF DOCUMENT COLLECTIONS (synthetic)\n")
	fmt.Fprintf(w, "%-24s %12s %14s %10s %10s %12s\n",
		"Collection", "Compressed", "Uncompressed", "Documents", "Terms", "Tokens")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %10.2fMB %12.2fMB %10d %10d %12d\n",
			r.Name, mb(r.CompressedSize), mb(r.UncompressedSize),
			r.Documents, r.Terms, r.Tokens)
	}
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }

// TableIVRow is one indexer-configuration column of paper Table IV.
type TableIVRow struct {
	Name             string
	PreSec           float64
	IndexSec         float64
	PostSec          float64
	SumSec           float64
	TotalIndexerSec  float64
	IndexTputMBps    float64
	TotalIndexerTput float64
}

// TableIV times the four indexer configurations of §IV.B on the
// ClueWeb-like collection with six parsers.
func TableIV(s Scale) ([]TableIVRow, error) {
	src := ClueWebSource(s)
	configs := []struct {
		name              string
		parsers, cpu, gpu int
	}{
		{"6 parsers + 2 GPU indexers", 6, 0, 2},
		{"6 parsers + 1 CPU indexer", 6, 1, 0},
		{"6 parsers + 2 CPU indexers", 6, 2, 0},
		{"6 parsers + 2 CPU + 2 GPU", 6, 2, 2},
	}
	var rows []TableIVRow
	for _, c := range configs {
		rep, err := buildWith(src, c.parsers, c.cpu, c.gpu)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		sum := rep.PreProcessingSec + rep.IndexingSec + rep.PostProcessingSec
		rows = append(rows, TableIVRow{
			Name:             c.name,
			PreSec:           rep.PreProcessingSec,
			IndexSec:         rep.IndexingSec,
			PostSec:          rep.PostProcessingSec,
			SumSec:           sum,
			TotalIndexerSec:  rep.IndexersSpanSec,
			IndexTputMBps:    float64(rep.UncompressedBytes) / (1 << 20) / rep.IndexingSec,
			TotalIndexerTput: rep.IndexingThroughputMBps,
		})
	}
	return rows, nil
}

// FprintTableIV renders Table IV.
func FprintTableIV(w io.Writer, rows []TableIVRow) {
	fmt.Fprintln(w, "TABLE IV. RUNNING TIMES OF INDEXER CONFIGURATIONS (modeled seconds)")
	fmt.Fprintf(w, "%-28s %9s %9s %9s %9s %9s %10s %10s\n",
		"Configuration", "Pre", "Indexing", "Post", "Sum", "Total", "Idx MB/s", "Tot MB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9.4f %9.4f %9.4f %9.4f %9.4f %10.2f %10.2f\n",
			r.Name, r.PreSec, r.IndexSec, r.PostSec, r.SumSec,
			r.TotalIndexerSec, r.IndexTputMBps, r.TotalIndexerTput)
	}
}

// TableVRow is the CPU/GPU workload split (paper Table V).
type TableVRow struct {
	CPUTokens, GPUTokens int64
	CPUTerms, GPUTerms   int64
	CPUChars, GPUChars   int64
}

// TableV reports the workload split of the 2 CPU + 2 GPU configuration.
func TableV(s Scale) (*TableVRow, error) {
	rep, err := buildWith(ClueWebSource(s), 6, 2, 2)
	if err != nil {
		return nil, err
	}
	return &TableVRow{
		CPUTokens: rep.CPUTokens, GPUTokens: rep.GPUTokens,
		CPUTerms: rep.CPUTerms, GPUTerms: rep.GPUTerms,
		CPUChars: rep.CPUChars, GPUChars: rep.GPUChars,
	}, nil
}

// FprintTableV renders Table V.
func FprintTableV(w io.Writer, r *TableVRow) {
	fmt.Fprintln(w, "TABLE V. WORK LOAD BETWEEN CPU AND GPU")
	fmt.Fprintf(w, "%-18s %16s %16s %8s\n", "", "CPU Indexers", "GPU Indexers", "GPU/CPU")
	ratio := func(a, b int64) float64 {
		if a == 0 {
			return 0
		}
		return float64(b) / float64(a)
	}
	fmt.Fprintf(w, "%-18s %16d %16d %8.2f\n", "Token Number", r.CPUTokens, r.GPUTokens, ratio(r.CPUTokens, r.GPUTokens))
	fmt.Fprintf(w, "%-18s %16d %16d %8.2f\n", "Term Number", r.CPUTerms, r.GPUTerms, ratio(r.CPUTerms, r.GPUTerms))
	fmt.Fprintf(w, "%-18s %16d %16d %8.2f\n", "Character Number", r.CPUChars, r.GPUChars, ratio(r.CPUChars, r.GPUChars))
}

// TableVIRow is one collection's end-to-end timing (paper Table VI).
type TableVIRow struct {
	Name           string
	SamplingSec    float64
	ParsersSec     float64
	IndexersSec    float64
	DictCombineSec float64
	DictWriteSec   float64
	TotalSec       float64
	ThroughputMBps float64

	// IndexingSec is the pure indexing critical path (not a paper
	// row; kept for shape assertions that must be independent of the
	// parser-bound pipeline floor).
	IndexingSec float64
}

// TableVI times the best configuration on the three collections plus
// ClueWeb without GPUs.
func TableVI(s Scale) ([]TableVIRow, error) {
	runs := []struct {
		name     string
		src      corpus.Source
		cpu, gpu int
	}{
		{"ClueWeb09-like", ClueWebSource(s), 2, 2},
		{"ClueWeb09-like w/o GPUs", ClueWebSource(s), 2, 0},
		{"Wikipedia01-07-like", WikipediaSource(s), 2, 2},
		{"LibraryOfCongress-like", LibraryOfCongressSource(s), 2, 2},
	}
	var rows []TableVIRow
	for _, c := range runs {
		rep, err := buildWith(c.src, 6, c.cpu, c.gpu)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, TableVIRow{
			Name:           c.name,
			SamplingSec:    rep.SamplingSec,
			ParsersSec:     rep.ParsersSpanSec,
			IndexersSec:    rep.IndexersSpanSec,
			DictCombineSec: rep.DictCombineSec,
			DictWriteSec:   rep.DictWriteSec,
			TotalSec:       rep.TotalSec,
			ThroughputMBps: rep.ThroughputMBps,
			IndexingSec:    rep.IndexingSec,
		})
	}
	return rows, nil
}

// FprintTableVI renders Table VI.
func FprintTableVI(w io.Writer, rows []TableVIRow) {
	fmt.Fprintln(w, "TABLE VI. PERFORMANCE ON DIFFERENT DOCUMENT COLLECTIONS (modeled seconds)")
	fmt.Fprintf(w, "%-26s %9s %9s %9s %9s %9s %9s %9s\n",
		"Collection", "Sampling", "Parsers", "Indexers", "DictComb", "DictWr", "Total", "MB/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.2f\n",
			r.Name, r.SamplingSec, r.ParsersSec, r.IndexersSec,
			r.DictCombineSec, r.DictWriteSec, r.TotalSec, r.ThroughputMBps)
	}
}

// TableIVReports exposes the underlying reports of Table IV's four
// configurations (tests assert the workload splits behind its shape).
func TableIVReports(s Scale) (gpuOnly, oneCPU, twoCPU, hybrid *core.Report, err error) {
	src := ClueWebSource(s)
	if gpuOnly, err = buildWith(src, 6, 0, 2); err != nil {
		return
	}
	if oneCPU, err = buildWith(src, 6, 1, 0); err != nil {
		return
	}
	if twoCPU, err = buildWith(src, 6, 2, 0); err != nil {
		return
	}
	hybrid, err = buildWith(src, 6, 2, 2)
	return
}
