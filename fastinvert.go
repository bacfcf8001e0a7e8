// Package fastinvert is a Go reproduction of "A Fast Algorithm for
// Constructing Inverted Files on Heterogeneous Platforms" (Zheng Wei
// and Joseph JaJa, IPDPS 2011): a pipelined, parallel inverted-file
// indexer for a multicore CPU with GPU accelerators.
//
// The package exposes the system's public surface:
//
//   - Builder runs the full pipeline — parallel parsers, the hybrid
//     trie + cached-B-tree dictionary, sampling-driven CPU/GPU load
//     split, CPU indexers and simulated-GPU indexers, per-run postings
//     files and the final front-coded dictionary.
//   - GenerateCorpus creates the deterministic synthetic collections
//     standing in for ClueWeb09, Wikipedia01-07 and the Library of
//     Congress crawl.
//   - Open loads a built index for postings queries.
//
// Because Go has no CUDA bindings, the GPU indexer executes on a
// cycle-accounted SIMT simulator; see DESIGN.md for the substitution
// map and EXPERIMENTS.md for the paper-versus-measured results.
//
// Quick start:
//
//	src := fastinvert.GenerateCorpus(fastinvert.ClueWeb09Profile(1), 8)
//	opts := fastinvert.DefaultOptions()
//	opts.OutDir = "./index"
//	b, err := fastinvert.NewBuilder(opts)
//	if err != nil { ... }
//	report, err := b.Build(src)
//	idx, err := fastinvert.Open("./index")
//	list, err := idx.Postings(fastinvert.NormalizeTerm("parallelized"))
package fastinvert

import (
	"context"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/postings"
	"fastinvert/internal/search"
	"fastinvert/internal/stem"
	"fastinvert/internal/store"
	"fastinvert/internal/trie"
)

// Typed errors, re-exported so callers can match failures with
// errors.Is / errors.As without importing internal packages.
var (
	// ErrTermNotFound reports a dictionary miss from Index.LookupTerm.
	// (Index.Postings folds missing terms into an empty list instead.)
	ErrTermNotFound = store.ErrTermNotFound

	// ErrCorruptIndex reports structurally invalid index bytes — bad
	// magic, failed checksum, truncated table or out-of-bounds entry —
	// from Open, Index queries or VerifyIndex.
	ErrCorruptIndex = store.ErrCorruptIndex

	// ErrClosed reports use of an Index after Close.
	ErrClosed = store.ErrClosed

	// ErrNotPositional reports a phrase query against an index built
	// without Options.Positional.
	ErrNotPositional = search.ErrNotPositional
)

// Options configures a Builder; see core.Config for field docs.
type Options = core.Config

// Report is the full build accounting, structured to regenerate the
// paper's tables (see core.Report).
type Report = core.Report

// FileStat is one per-file throughput sample (Fig. 11).
type FileStat = core.FileStat

// Source is a readable document collection (container files of
// DocDelim-separated documents, possibly gzipped).
type Source = corpus.Source

// Profile parameterizes a synthetic collection.
type Profile = corpus.Profile

// Index reads a built index directory.
type Index = store.IndexReader

// PostingsList is a term's (docID, tf) list, as Index.Postings returns
// it.
type PostingsList = postings.List

// DefaultOptions mirrors the paper's best configuration: six parsers,
// two CPU indexers, two (simulated) Tesla C1060 GPUs.
func DefaultOptions() Options { return core.DefaultConfig() }

// Builder drives the pipelined indexing engine.
type Builder struct {
	eng *core.Engine
}

// NewBuilder validates opts and allocates the engine.
func NewBuilder(opts Options) (*Builder, error) {
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return &Builder{eng: eng}, nil
}

// Build indexes the source, returning the timing/throughput report.
// When opts.OutDir is set, run files, the doc map and the dictionary
// are persisted there and can be queried via Open. With
// opts.Concurrent the pipeline stages run as goroutines and overlap on
// multicore hosts; the output is identical either way.
func (b *Builder) Build(src Source) (*Report, error) {
	return b.BuildContext(context.Background(), src)
}

// BuildContext is Build under a context: cancellation or deadline
// expiry aborts the pipeline cleanly — concurrent stage goroutines
// drain and exit — and the call returns ctx.Err(). A canceled build
// may leave a partial OutDir behind.
func (b *Builder) BuildContext(ctx context.Context, src Source) (*Report, error) {
	if b.eng.Config().Concurrent {
		return b.eng.BuildConcurrentContext(ctx, src)
	}
	return b.eng.BuildContext(ctx, src)
}

// ParseOnly measures the parsing pipeline alone (Fig. 10 scenario 3).
func (b *Builder) ParseOnly(src Source) (*Report, error) { return b.eng.ParseOnly(src) }

// ClueWeb09Profile returns the ClueWeb09-like synthetic profile at the
// given scale (1 = a few MB; ratios matter, not absolute size).
func ClueWeb09Profile(scale float64) Profile { return corpus.ClueWeb09(scale) }

// WikipediaProfile returns the Wikipedia01-07-like profile.
func WikipediaProfile(scale float64) Profile { return corpus.Wikipedia0107(scale) }

// LibraryOfCongressProfile returns the Library-of-Congress-like profile.
func LibraryOfCongressProfile(scale float64) Profile { return corpus.LibraryOfCongress(scale) }

// GenerateCorpus creates an in-memory lazy source of numFiles
// container files for a profile.
func GenerateCorpus(p Profile, numFiles int) Source {
	return corpus.NewMemSource(corpus.NewGenerator(p), numFiles)
}

// WriteCorpus materializes a synthetic collection into a directory,
// returning total stored bytes.
func WriteCorpus(p Profile, numFiles int, dir string) (int64, error) {
	return corpus.WriteDir(corpus.NewGenerator(p), numFiles, dir)
}

// OpenCorpusDir opens a directory of .txt/.txt.gz container files as a
// source.
func OpenCorpusDir(dir string) (Source, error) { return corpus.OpenDir(dir) }

// CorpusStats scans a source with the full parsing pipeline and
// reports its Table III statistics.
func CorpusStats(src Source) (corpus.Stats, error) { return corpus.ComputeStats(src) }

// Open loads a built index directory for queries. The returned Index
// is safe for concurrent use; call Close to release it — subsequent
// queries return ErrClosed.
func Open(dir string) (*Index, error) { return store.OpenIndex(dir) }

// ReaderOptions tunes how an index directory is opened; see
// store.ReaderOptions for field docs. The zero value matches Open.
type ReaderOptions = store.ReaderOptions

// OpenWith is Open with reader options — notably MergeCodec, which
// selects the postings codec strategy ("auto", "varbyte", ...) the
// next Index.Merge writes with.
func OpenWith(dir string, opts ReaderOptions) (*Index, error) {
	return store.OpenIndexWith(dir, opts)
}

// Searcher evaluates Boolean and ranked queries over an opened index.
type Searcher = search.Searcher

// ScoredDoc is one ranked retrieval result.
type ScoredDoc = search.ScoredDoc

// NewSearcher wraps an opened index for query evaluation (term lookup
// with index-identical normalization, AND/OR, BM25/TF-IDF top-k).
func NewSearcher(idx *Index) *Searcher { return search.New(idx) }

// VerifyReport summarizes an index integrity check.
type VerifyReport = store.VerifyReport

// VerifyIndex checks the structural integrity of a built index: run
// checksums, postings order and doc ranges, dictionary/postings
// cross-references, and auxiliary-file consistency.
func VerifyIndex(dir string) (*VerifyReport, error) { return store.Verify(dir) }

// NormalizeTerm applies the indexing pipeline's term normalization
// (lowercase + Porter stem) to a query word, so lookups match what was
// indexed.
func NormalizeTerm(word string) string { return string(stem.Normalize(word)) }

// TrieIndex reports the Table I trie-collection index of a normalized
// term — exposed because the collection index is part of the on-disk
// run-file addressing.
func TrieIndex(term string) int { return trie.IndexString(term) }

// NumTrieCollections is the size of the trie table (Table I).
const NumTrieCollections = trie.NumCollections
