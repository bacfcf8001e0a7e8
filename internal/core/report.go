package core

import "fastinvert/internal/pipesim"

// Report is the engine's full accounting of one Build, structured to
// regenerate the paper's tables directly.
type Report struct {
	// Collection totals.
	Files             int
	Docs              int64
	Tokens            int64
	Terms             int64
	CompressedBytes   int64
	UncompressedBytes int64

	// The §III.E sample: documents parsed and uncompressed bytes
	// inflated (or sliced, for plain files) to obtain them.
	SampledDocs  int64
	SampledBytes int64

	// Raw tokens the pipeline's parsers resolved from their token caches
	// and the ones they ran through stem, stop list and trie (the
	// sampling parser's are not counted).
	TokenCacheHits   int64
	TokenCacheMisses int64

	// Table VI rows (modeled seconds).
	SamplingSec     float64
	ParsersSpanSec  float64 // completion of the last parse
	IndexersSpanSec float64 // completion of the last indexed block
	DictCombineSec  float64
	DictWriteSec    float64
	TotalSec        float64

	// Table IV decomposition (sums over runs, modeled seconds).
	PreProcessingSec  float64 // GPU HtoD transfers
	IndexingSec       float64 // indexer busy time critical path
	PostProcessingSec float64 // DtoH + combine + compress + write

	// Throughputs in MB/s over uncompressed bytes.
	ThroughputMBps         float64 // uncompressed / TotalSec
	IndexingThroughputMBps float64 // uncompressed / IndexersSpanSec

	// Table V workload split.
	CPUTokens int64
	CPUTerms  int64
	CPUChars  int64
	GPUTokens int64
	GPUTerms  int64
	GPUChars  int64

	// Fig. 11 series (KeepPerFileStats).
	PerFile []FileStat

	// Dictionary/postings output sizes.
	DictionaryBytes int64
	PostingsBytes   int64

	// Schedule is the raw pipesim result for deeper analysis.
	Schedule *pipesim.Result
}

// FileStat is one Fig. 11 sample: the indexing throughput of one
// container file.
type FileStat struct {
	Name              string
	UncompressedBytes int64
	IndexSec          float64 // span the indexers spent on this block
	ThroughputMBps    float64
}
