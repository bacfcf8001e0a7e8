package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fastinvert/internal/corpus"
	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/encoding"
	"fastinvert/internal/gpu"
	"fastinvert/internal/gpuindexer"
	"fastinvert/internal/parser"
	"fastinvert/internal/pipesim"
	"fastinvert/internal/postings"
	"fastinvert/internal/sampling"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
	"fastinvert/internal/trie"
)

// Engine builds inverted files from a corpus source using the paper's
// pipelined CPU+GPU strategy.
type Engine struct {
	cfg Config

	cpuIxs []*cpuindexer.Indexer
	gpuIxs []*gpuindexer.Indexer
	assign *sampling.Assignment

	docLens  []uint32 // per-document token counts, in global docID order
	docFiles []string // container-file names, one per processed file
	docLocs  []store.DocLocation

	// Buffer recycling (the paper's fixed pipeline buffers, Fig. 8):
	// blocks and per-file scratch circulate between the parser stage and
	// the sequencer instead of being reallocated per container file, and
	// the share partitions are engine-owned because the sequencer is the
	// only caller of splitShares and waits for every indexer before the
	// next block.
	blocks  *parser.BlockPool
	scratch sync.Pool // *fileScratch
	shares  shareScratch

	// Telemetry state for the current build (observe.go): the nil-safe
	// observer seam and the per-trie-collection token accumulator.
	obs        spanObserver
	collTokens map[int]int64

	// runSel is the per-list codec selector resolved from
	// Config.RunCodec at New; nil encodes every run list with varbyte.
	runSel encoding.Selector
}

// fileScratch is the recyclable per-file parser-stage scratch: the doc
// split and the offset/length columns that postProcessBlock copies into
// the document-location table. It travels inside parsedFile and returns
// to the pool via releaseParsed.
type fileScratch struct {
	docs     [][]byte
	offsets  []int
	byteLens []int
}

// shareScratch holds splitShares' reusable output slices.
type shareScratch struct {
	cpu  [][]*parser.Group
	gpu  [][]*parser.Group
	idxs []int
}

// New validates the configuration and allocates the indexers.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.CPUThroughputScale <= 0 {
		cfg.CPUThroughputScale = 1
	}
	e := &Engine{cfg: cfg, blocks: parser.NewBlockPool()}
	e.scratch.New = func() any { return &fileScratch{} }
	if cfg.RunCodec != "" {
		sel, err := encoding.SelectorFor(cfg.RunCodec)
		if err != nil {
			return nil, fmt.Errorf("core: run codec: %w", err)
		}
		e.runSel = sel
	}
	for i := 0; i < cfg.CPUIndexers; i++ {
		ix := cpuindexer.New()
		ix.NoCache = cfg.NoCacheDictionary
		e.cpuIxs = append(e.cpuIxs, ix)
	}
	for j := 0; j < cfg.GPUs; j++ {
		dev, err := gpu.NewDevice(cfg.GPU)
		if err != nil {
			return nil, err
		}
		e.gpuIxs = append(e.gpuIxs, gpuindexer.New(dev, gpuindexer.Config{}))
	}
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) measure(t0 time.Time) float64 {
	return time.Since(t0).Seconds() * e.cfg.CPUThroughputScale
}

// samplePhase runs the sampling pass (§III.E) — serialized before the
// pipeline — and binds every trie collection to its indexer.
func (e *Engine) samplePhase(src corpus.Source, rep *Report) error {
	t0 := time.Now()
	counts, err := sampling.Sample(src, e.newParser(), e.cfg.Sampling)
	if err != nil {
		return err
	}
	if e.cfg.RandomSplit {
		e.assign, err = sampling.AssignRandom(counts, e.cfg.CPUIndexers, e.cfg.GPUs,
			e.cfg.Sampling.PopularCount, e.cfg.RandomSplitSeed)
	} else {
		e.assign, err = sampling.Assign(counts, e.cfg.CPUIndexers, e.cfg.GPUs,
			e.cfg.Sampling.PopularCount)
	}
	if err != nil {
		return err
	}
	rep.SamplingSec = e.measure(t0)
	rep.SampledDocs = counts.DocsSeen
	rep.SampledBytes = counts.Bytes
	e.obs.span(telemetry.StageSampling, -1, -1, t0, counts.Bytes, counts.Total, counts.DocsSeen)
	return nil
}

// Build runs the complete pipeline over src and returns the report.
// When cfg.OutDir is set the run files, docmap and dictionary are
// persisted there.
func (e *Engine) Build(src corpus.Source) (*Report, error) {
	return e.BuildContext(context.Background(), src)
}

// BuildContext is Build under a context: cancellation or deadline
// expiry is observed between files and aborts the build with ctx.Err().
// A canceled build leaves any partially written OutDir behind; rerun
// to completion (or remove it) before opening.
func (e *Engine) BuildContext(ctx context.Context, src corpus.Source) (_ *Report, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := &Report{Files: src.NumFiles()}
	e.docLens = e.docLens[:0]
	e.docFiles = e.docFiles[:0]
	e.docLocs = e.docLocs[:0]
	e.beginObserve(src.NumFiles(), false)
	defer func() { e.endObserve(rep, err) }()

	if err := e.samplePhase(src, rep); err != nil {
		return nil, err
	}

	var writer *store.IndexWriter
	if e.cfg.OutDir != "" {
		var err error
		writer, err = store.NewIndexWriter(e.cfg.OutDir)
		if err != nil {
			return nil, err
		}
	}

	nIdx := e.cfg.CPUIndexers + e.cfg.GPUs
	items := make([]pipesim.Item, 0, src.NumFiles())
	var docBase uint32
	p := e.newParser()
	var buf []byte // the parser's inflate buffer

	for f := 0; f < src.NumFiles(); f++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tRead := time.Now()
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("core: read %s: %w", src.FileName(f), err)
		}
		e.obs.span(telemetry.StageRead, -1, f, tRead, int64(len(stored)), 0, 0)
		pf := e.parseOne(p, &buf, f, stored, compressed, nil)
		if pf.err != nil {
			return nil, pf.err
		}
		rep.addParsed(&pf)

		// Index: every indexer consumes its share of this block,
		// serially here (BuildConcurrent overlaps them).
		if err := e.cfg.Hooks.beforeIndex(f); err != nil {
			return nil, err
		}
		cpuShares, gpuShares := e.splitShares(pf.blk)
		e.accountShares(pf.blk)
		for i, ix := range e.cpuIxs {
			t := time.Now()
			if _, err := ix.IndexRun(cpuShares[i], docBase); err != nil {
				return nil, err
			}
			pf.item.IndexSec[i] = e.measure(t)
			e.obs.span(telemetry.StageIndex, i, f, t, 0, shareTokens(cpuShares[i]), 0)
		}
		for j, ix := range e.gpuIxs {
			t := time.Now()
			rs, err := ix.IndexRun(gpuShares[j], docBase)
			if err != nil {
				return nil, err
			}
			pf.item.IndexSec[e.cfg.CPUIndexers+j] = e.gpuShare(rs.PreSec, rs.KernelSec, rs.PostSec)
			rep.PreProcessingSec += rs.PreSec
			rep.PostProcessingSec += rs.PostSec
			e.obs.span(telemetry.StageIndex, e.cfg.CPUIndexers+j, f, t,
				0, shareTokens(gpuShares[j]), 0)
		}

		if err := e.postProcessBlock(&pf, docBase, src.FileName(f), rep, writer); err != nil {
			return nil, err
		}
		e.releaseParsed(&pf)
		docBase += uint32(pf.docs)
		items = append(items, pf.item)
		if e.cfg.Progress != nil {
			e.cfg.Progress(f+1, src.NumFiles())
		}
	}
	return e.finishReport(rep, items, nIdx, writer)
}

// gpuShare converts one GPU run's phase times into its pipeline share,
// optionally hiding the input transfer behind the kernel (double-
// buffered streams).
func (e *Engine) gpuShare(pre, kernel, post float64) float64 {
	if e.cfg.OverlapGPUTransfers {
		if kernel > pre {
			return kernel + post
		}
		return pre + post
	}
	return pre + kernel + post
}

// flushRun drains every indexer's per-run postings into the builder in
// deterministic (indexer, collection, slot) order. A run's table and
// blob are therefore one (collection, slot)-ordered region per indexer,
// not one ordered whole: the merge orders the table when it opens the
// run and reads each region's share of a shard as one extent.
func (e *Engine) flushRun(rb *store.RunBuilder) error {
	addList := func(coll int, slot int32, l *postings.List) error {
		if l.Positional() {
			return rb.AddPositionalList(coll, slot, l.DocIDs, l.TFs, l.Positions)
		}
		return rb.AddList(coll, slot, l.DocIDs, l.TFs)
	}
	for _, ix := range e.cpuIxs {
		for _, coll := range ix.Collections() {
			st := ix.Store(coll)
			for slot := 0; slot < st.NumSlots(); slot++ {
				if err := addList(coll, int32(slot), st.List(int32(slot))); err != nil {
					return err
				}
			}
		}
		ix.ResetRunPostings()
	}
	for _, ix := range e.gpuIxs {
		// The GPU indexer encodes its own lists and ships compressed
		// bytes (byte-identical to the CPU drain above, see
		// gpuindexer.EncodeRun; resets run postings itself).
		if err := ix.EncodeRun(e.runSel, rb); err != nil {
			return err
		}
	}
	return nil
}

// collectDictionary walks every indexer's dictionaries into one sorted
// entry list with full terms restored from the trie prefixes. The
// entry slice is pre-sized from the indexer term counters and prefix
// restoration reuses one scratch buffer, so the combine step costs one
// allocation per term (the entry's string) plus the slice itself.
func (e *Engine) collectDictionary() []store.DictEntry {
	terms := int64(0)
	for _, ix := range e.cpuIxs {
		terms += ix.Stats().NewTerms
	}
	for _, ix := range e.gpuIxs {
		terms += ix.Stats().NewTerms
	}
	dict := make([]store.DictEntry, 0, terms)
	var scratch []byte
	appendEntry := func(coll int, stripped []byte, slot int32) {
		scratch = trie.RestoreAppend(coll, scratch[:0], stripped)
		dict = append(dict, store.DictEntry{
			Term:       string(scratch),
			Collection: int32(coll),
			Slot:       slot,
		})
	}
	for _, ix := range e.cpuIxs {
		for _, coll := range ix.Collections() {
			coll := coll
			ix.WalkDictionary(coll, func(stripped []byte, slot int32) bool {
				appendEntry(coll, stripped, slot)
				return true
			})
		}
	}
	for _, ix := range e.gpuIxs {
		// Bulk export: one arena snapshot per device (the paper's
		// final dictionary move to host memory).
		ix.ExportDictionary(func(coll int, stripped []byte, slot int32) bool {
			appendEntry(coll, stripped, slot)
			return true
		})
	}
	store.SortDictEntries(dict)
	return dict
}

// ParseOnly measures Fig. 10's scenario (3): the parsing pipeline with
// no indexers consuming it.
func (e *Engine) ParseOnly(src corpus.Source) (*Report, error) {
	rep := &Report{Files: src.NumFiles()}
	p := e.newParser()
	items := make([]pipesim.Item, 0, src.NumFiles())
	var buf []byte // inflate buffer, reused file to file
	for f := 0; f < src.NumFiles(); f++ {
		stored, compressed, err := src.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rep.CompressedBytes += int64(len(stored))
		item := pipesim.Item{
			ReadSec: e.cfg.DiskLatencySec + float64(len(stored))/e.cfg.DiskBytesPerSec,
		}
		t := time.Now()
		plain, err := corpus.DecompressInto(buf, stored, compressed)
		if err != nil {
			return nil, err
		}
		if compressed {
			item.DecompressSec = e.measure(t)
			buf = plain
		}
		rep.UncompressedBytes += int64(len(plain))
		t = time.Now()
		blk := e.blocks.Get(f % e.cfg.Parsers)
		docs := corpus.SplitDocs(plain)
		for d, doc := range docs {
			p.ParseDoc(uint32(d), doc, blk)
		}
		item.ParseSec = e.measure(t)
		rep.Docs += int64(len(docs))
		rep.Tokens += int64(blk.Tokens)
		e.blocks.Put(blk)
		items = append(items, item)
	}
	rep.TokenCacheHits, rep.TokenCacheMisses = p.TokenCacheStats()
	res := pipesim.Simulate(pipesim.Config{
		Parsers:         e.cfg.Parsers,
		Indexers:        0,
		BufferPerParser: e.cfg.BufferPerParser,
	}, items)
	rep.Schedule = &res
	rep.ParsersSpanSec = res.ParsersOnlyMakespan
	rep.TotalSec = res.MakespanSec
	rep.ThroughputMBps = pipesim.Throughput(rep.UncompressedBytes, rep.TotalSec)
	return rep, nil
}
