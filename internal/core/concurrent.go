package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"fastinvert/internal/corpus"
	"fastinvert/internal/parser"
	"fastinvert/internal/pipesim"
	"fastinvert/internal/sampling"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// Concurrent execution of the pipeline with real goroutines, mirroring
// Fig. 9's dataflow:
//
//   - a disk goroutine reads container files strictly in order (the
//     paper's read scheduler serializes disk access);
//   - M parser goroutines each own the files with f mod M == p,
//     receiving raw bytes over a depth-1 channel (the parser buffer)
//     and emitting parsed blocks;
//   - a sequencer consumes blocks in file order — preserving the
//     round-robin consumption that keeps postings document-sorted —
//     fans each block's shares out to the CPU and GPU indexers in
//     parallel, then runs the serialized post-processing.
//
// The result is bit-identical to the serial executor: identical run
// files, dictionary and report counters. Stage durations are measured
// the same way and feed the same pipesim schedule, so modeled timings
// remain comparable across executors; on a multicore host the
// concurrent executor additionally delivers real wall-clock overlap.

// parsedFile is one file after the parser stage.
type parsedFile struct {
	f        int
	blk      *parser.Block
	docs     int
	offsets  []int // per-doc byte offsets within the uncompressed file
	byteLens []int // per-doc byte lengths
	item     pipesim.Item
	stored   int
	plain    int
	err      error

	cacheHits, cacheMisses int64 // the parser's token cache, this file

	scr *fileScratch // recyclable backing for offsets/byteLens
}

// BuildConcurrent runs the full pipeline with goroutine parallelism.
func (e *Engine) BuildConcurrent(src corpus.Source) (*Report, error) {
	return e.BuildConcurrentContext(context.Background(), src)
}

// BuildConcurrentContext is BuildConcurrent under a context. On
// cancellation the disk reader stops feeding the parsers, every stage
// goroutine drains to completion (no leaks), and the build returns
// ctx.Err(); a partially written OutDir may remain.
func (e *Engine) BuildConcurrentContext(ctx context.Context, src corpus.Source) (_ *Report, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// A derived context lets the sequencer tear the whole pipeline
	// down on ANY terminal error — not just caller cancellation — so
	// a failed build never strands the disk or parser goroutines.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	rep := &Report{Files: src.NumFiles()}
	e.docLens = e.docLens[:0]
	e.docFiles = e.docFiles[:0]
	e.docLocs = e.docLocs[:0]
	e.beginObserve(src.NumFiles(), true)
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

	n := src.NumFiles()
	m := e.cfg.Parsers
	nIdx := e.cfg.CPUIndexers + e.cfg.GPUs

	// Disk goroutine: serialized in-order reads, routed to the owning
	// parser. Channel depth 1 per parser = one raw file in flight.
	type rawFile struct {
		f      int
		stored []byte
		gz     bool
		err    error
	}
	parserIn := make([]chan rawFile, m)
	for p := range parserIn {
		parserIn[p] = make(chan rawFile, 1)
	}
	go func() {
		defer func() {
			for _, ch := range parserIn {
				close(ch)
			}
		}()
		for f := 0; f < n; f++ {
			tRead := time.Now()
			stored, gz, err := src.ReadFile(f)
			if err == nil {
				e.obs.span(telemetry.StageRead, -1, f, tRead, int64(len(stored)), 0, 0)
			}
			// Occupancy of the target parser's depth-1 buffer just
			// before the send: 1 means the disk is about to block on
			// that parser (backpressure).
			e.obs.sample("parser_buffer_depth", f%m, float64(len(parserIn[f%m])))
			select {
			case parserIn[f%m] <- rawFile{f: f, stored: stored, gz: gz, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// Parser goroutines.
	results := make(chan parsedFile, m)
	var wg sync.WaitGroup
	for p := 0; p < m; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			psr := e.newParser()
			var buf []byte // this parser's inflate buffer
			for raw := range parserIn[p] {
				results <- e.parseOne(psr, &buf, raw.f, raw.stored, raw.gz, raw.err)
			}
		}(p)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// fail tears the pipeline down before surfacing err: canceling the
	// derived context makes the disk goroutine exit and close the
	// parser inputs, so draining results until close guarantees no
	// stage goroutine is left blocked on a send. Every terminal error
	// path — caller cancellation, read/parse faults, indexer or writer
	// failures — funnels through here.
	fail := func(err error) error {
		cancel()
		for range results {
		}
		return err
	}

	// Sequencer: consume blocks in file order, index shares in
	// parallel, post-process serially.
	pending := make(map[int]parsedFile)
	items := make([]pipesim.Item, 0, n)
	var docBase uint32
	next := 0
	for next < n {
		if ctx.Err() != nil {
			return nil, fail(ctx.Err())
		}
		pf, ok := pending[next]
		if !ok {
			select {
			case r, open := <-results:
				if !open {
					if ctx.Err() != nil {
						return nil, ctx.Err()
					}
					return nil, fmt.Errorf("core: parser stage ended early at file %d", next)
				}
				pending[r.f] = r
				// Parsed blocks queued ahead of the sequencer: high
				// occupancy means the indexers are the bottleneck.
				e.obs.sample("parsed_queue_depth", -1, float64(len(results)+len(pending)))
			case <-ctx.Done():
				return nil, fail(ctx.Err())
			}
			continue
		}
		delete(pending, next)
		if pf.err != nil {
			return nil, fail(pf.err)
		}
		rep.addParsed(&pf)

		if err := e.cfg.Hooks.beforeIndex(pf.f); err != nil {
			return nil, fail(err)
		}
		if err := e.indexBlockConcurrent(pf.blk, pf.f, docBase, &pf.item, rep); err != nil {
			return nil, fail(err)
		}
		if err := e.postProcessBlock(&pf, docBase, src.FileName(pf.f), rep, writer); err != nil {
			return nil, fail(err)
		}
		e.releaseParsed(&pf)
		docBase += uint32(pf.docs)
		items = append(items, pf.item)
		next++
		if e.cfg.Progress != nil {
			e.cfg.Progress(next, n)
		}
	}

	return e.finishReport(rep, items, nIdx, writer)
}

// addParsed folds one parsed file's totals into the report.
func (rep *Report) addParsed(pf *parsedFile) {
	rep.CompressedBytes += int64(pf.stored)
	rep.UncompressedBytes += int64(pf.plain)
	rep.Docs += int64(pf.docs)
	rep.Tokens += int64(pf.blk.Tokens)
	rep.TokenCacheHits += pf.cacheHits
	rep.TokenCacheMisses += pf.cacheMisses
}

// newParser builds a parser honoring the configured stop-word list
// and positional mode.
func (e *Engine) newParser() *parser.Parser {
	var p *parser.Parser
	if e.cfg.StopWords == nil {
		p = parser.New(nil)
	} else {
		p = parser.New(stopwords.NewSet(e.cfg.StopWords))
	}
	p.Positional = e.cfg.Positional
	return p
}

// parseOne executes the parser stage (read modeling, decompression,
// parse) for one file. A compressed file is inflated into *buf, which
// keeps the (possibly grown) buffer for the parser's next file: the
// inflated bytes are dead once parsed, since the block copies every
// term out of them.
func (e *Engine) parseOne(psr *parser.Parser, buf *[]byte, f int, stored []byte, gz bool, readErr error) parsedFile {
	pf := parsedFile{f: f, stored: len(stored)}
	if readErr != nil {
		pf.err = fmt.Errorf("core: read file %d: %w", f, readErr)
		return pf
	}
	tSpan := time.Now()
	pf.item = pipesim.Item{
		ReadSec:  e.cfg.DiskLatencySec + float64(len(stored))/e.cfg.DiskBytesPerSec,
		IndexSec: make([]float64, e.cfg.CPUIndexers+e.cfg.GPUs),
	}
	t := time.Now()
	plain, err := corpus.DecompressInto(*buf, stored, gz)
	if err != nil {
		pf.err = fmt.Errorf("core: decompress file %d: %w", f, err)
		return pf
	}
	if gz {
		pf.item.DecompressSec = e.measure(t)
		*buf = plain
	}
	pf.plain = len(plain)

	t = time.Now()
	blk := e.blocks.Get(f % e.cfg.Parsers)
	scr := e.scratch.Get().(*fileScratch)
	scr.docs, scr.offsets = corpus.SplitDocsOffsetsAppend(plain, scr.docs[:0], scr.offsets[:0])
	docs := scr.docs
	hits0, misses0 := psr.TokenCacheStats()
	for d, doc := range docs {
		psr.ParseDoc(uint32(d), doc, blk)
	}
	hits, misses := psr.TokenCacheStats()
	pf.cacheHits, pf.cacheMisses = hits-hits0, misses-misses0
	pf.item.ParseSec = e.measure(t)
	pf.blk = blk
	pf.docs = len(docs)
	pf.offsets = scr.offsets
	scr.byteLens = scr.byteLens[:0]
	for _, doc := range docs {
		scr.byteLens = append(scr.byteLens, len(doc))
	}
	pf.byteLens = scr.byteLens
	pf.scr = scr
	e.obs.span(telemetry.StageParse, f%e.cfg.Parsers, f, tSpan,
		int64(len(plain)), int64(blk.Tokens), int64(len(docs)))
	if err := e.cfg.Hooks.afterParse(f); err != nil {
		pf.err = err
	}
	return pf
}

// indexBlockConcurrent fans the block's shares out to all indexers in
// parallel and records their measured/modeled durations.
func (e *Engine) indexBlockConcurrent(blk *parser.Block, file int, docBase uint32, item *pipesim.Item, rep *Report) error {
	cpuShares, gpuShares := e.splitShares(blk)
	e.accountShares(blk)
	var wg sync.WaitGroup
	errs := make([]error, e.cfg.CPUIndexers+e.cfg.GPUs)
	var mu sync.Mutex // guards rep's GPU pre/post accumulators
	for i := range e.cpuIxs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := time.Now()
			if _, err := e.cpuIxs[i].IndexRun(cpuShares[i], docBase); err != nil {
				errs[i] = err
				return
			}
			item.IndexSec[i] = e.measure(t)
			e.obs.span(telemetry.StageIndex, i, file, t, 0, shareTokens(cpuShares[i]), 0)
		}(i)
	}
	for j := range e.gpuIxs {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			t := time.Now()
			rs, err := e.gpuIxs[j].IndexRun(gpuShares[j], docBase)
			if err != nil {
				errs[e.cfg.CPUIndexers+j] = err
				return
			}
			item.IndexSec[e.cfg.CPUIndexers+j] = e.gpuShare(rs.PreSec, rs.KernelSec, rs.PostSec)
			e.obs.span(telemetry.StageIndex, e.cfg.CPUIndexers+j, file, t,
				0, shareTokens(gpuShares[j]), 0)
			mu.Lock()
			rep.PreProcessingSec += rs.PreSec
			rep.PostProcessingSec += rs.PostSec
			mu.Unlock()
		}(j)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// splitShares partitions a block's groups by indexer owner in
// deterministic collection order. The returned slices are engine-owned
// scratch, valid until the next splitShares call: both executors call
// it from the (serial) sequencing loop and wait for every indexer to
// finish the block before moving on.
func (e *Engine) splitShares(blk *parser.Block) (cpuShares, gpuShares [][]*parser.Group) {
	s := &e.shares
	if len(s.cpu) != e.cfg.CPUIndexers {
		s.cpu = make([][]*parser.Group, e.cfg.CPUIndexers)
	}
	if len(s.gpu) != e.cfg.GPUs {
		s.gpu = make([][]*parser.Group, e.cfg.GPUs)
	}
	for i := range s.cpu {
		s.cpu[i] = s.cpu[i][:0]
	}
	for j := range s.gpu {
		s.gpu[j] = s.gpu[j][:0]
	}
	s.idxs = s.idxs[:0]
	for gi := range blk.Groups {
		s.idxs = append(s.idxs, gi)
	}
	sort.Ints(s.idxs)
	for _, gi := range s.idxs {
		kind, owner := e.assign.Owner(gi)
		if kind == sampling.KindCPU {
			s.cpu[owner] = append(s.cpu[owner], blk.Groups[gi])
		} else {
			s.gpu[owner] = append(s.gpu[owner], blk.Groups[gi])
		}
	}
	return s.cpu, s.gpu
}

// releaseParsed returns a fully post-processed file's block and scratch
// to their pools. Error paths skip it — a leaked buffer just falls back
// to the GC.
func (e *Engine) releaseParsed(pf *parsedFile) {
	e.blocks.Put(pf.blk)
	pf.blk = nil
	if pf.scr != nil {
		scr := pf.scr
		pf.scr = nil
		pf.offsets = nil
		pf.byteLens = nil
		e.scratch.Put(scr)
	}
}

// postProcessBlock runs the serialized per-run post-processing:
// combine postings, compress, write the run file, account stats.
func (e *Engine) postProcessBlock(pf *parsedFile, docBase uint32,
	fileName string, rep *Report, writer *store.IndexWriter) error {
	if err := e.cfg.Hooks.beforeWriteRun(pf.f); err != nil {
		return err
	}
	blk, docs, plainLen, item := pf.blk, pf.docs, pf.plain, &pf.item

	// Record document lengths (BM25 normalization) and the Step 1
	// <docID, location on disk> table (§III.C).
	fileIdx := uint32(len(e.docFiles))
	e.docFiles = append(e.docFiles, fileName)
	for d := 0; d < docs; d++ {
		e.docLens = append(e.docLens, uint32(blk.DocTokens[uint32(d)]))
		e.docLocs = append(e.docLocs, store.DocLocation{
			FileIdx: fileIdx,
			Offset:  uint32(pf.offsets[d]),
			Length:  uint32(pf.byteLens[d]),
		})
	}

	t := time.Now()
	rb := store.NewRunBuilderCodec(e.runSel)
	if err := e.flushRun(rb); err != nil {
		return err
	}
	firstDoc := docBase
	lastDoc := docBase
	if docs > 0 {
		lastDoc = docBase + uint32(docs) - 1
	}
	var runBytes int64
	if writer != nil {
		if err := writer.WriteRun(rb, firstDoc, lastDoc); err != nil {
			return err
		}
		runBytes = writer.Runs()[len(writer.Runs())-1].Bytes
	} else {
		runBytes = int64(len(rb.Finalize(firstDoc, lastDoc)))
	}
	rep.PostingsBytes += runBytes
	flushSec := e.measure(t)
	e.obs.span(telemetry.StageFlush, -1, pf.f, t, runBytes, 0, 0)
	item.PostSec = flushSec
	rep.PostProcessingSec += flushSec

	maxShare := 0.0
	for _, s := range item.IndexSec {
		if s > maxShare {
			maxShare = s
		}
	}
	rep.IndexingSec += maxShare
	if e.cfg.KeepPerFileStats {
		span := maxShare + flushSec
		rep.PerFile = append(rep.PerFile, FileStat{
			Name:              fileName,
			UncompressedBytes: int64(plainLen),
			IndexSec:          span,
			ThroughputMBps:    pipesim.Throughput(int64(plainLen), span),
		})
	}
	return nil
}

// finishReport runs the dictionary phases, Table V accounting and the
// pipeline schedule — shared by both executors.
func (e *Engine) finishReport(rep *Report, items []pipesim.Item, nIdx int, writer *store.IndexWriter) (*Report, error) {
	t := time.Now()
	dict := e.collectDictionary()
	rep.DictCombineSec = e.measure(t)
	rep.Terms = int64(len(dict))
	e.obs.span(telemetry.StageDictCombine, -1, -1, t, 0, 0, 0)

	t = time.Now()
	if writer != nil {
		if err := writer.WriteDocLens(e.docLens); err != nil {
			return nil, err
		}
		if err := writer.WriteDocTable(e.docFiles, e.docLocs); err != nil {
			return nil, err
		}
		if err := writer.Finish(dict); err != nil {
			return nil, err
		}
	}
	rep.DictionaryBytes = int64(store.FrontCodedSize(dict))
	rep.DictWriteSec = e.measure(t)
	e.obs.span(telemetry.StageDictWrite, -1, -1, t, rep.DictionaryBytes, 0, 0)

	for _, ix := range e.cpuIxs {
		st := ix.Stats()
		rep.CPUTokens += st.Tokens
		rep.CPUTerms += st.NewTerms
		rep.CPUChars += st.Chars
	}
	for _, ix := range e.gpuIxs {
		st := ix.Stats()
		rep.GPUTokens += st.Tokens
		rep.GPUTerms += st.NewTerms
		rep.GPUChars += st.Chars
		// Bound resident simulator memory between builds: drop the
		// device chunks that backed only this build's transient data.
		ix.Device().TrimTransients()
	}

	res := pipesim.Simulate(pipesim.Config{
		Parsers:         e.cfg.Parsers,
		Indexers:        nIdx,
		BufferPerParser: e.cfg.BufferPerParser,
	}, items)
	rep.Schedule = &res
	rep.ParsersSpanSec = res.ParsersOnlyMakespan
	rep.IndexersSpanSec = res.MakespanSec
	rep.TotalSec = rep.SamplingSec + res.MakespanSec + rep.DictCombineSec + rep.DictWriteSec
	rep.ThroughputMBps = pipesim.Throughput(rep.UncompressedBytes, rep.TotalSec)
	rep.IndexingThroughputMBps = pipesim.Throughput(rep.UncompressedBytes, rep.IndexersSpanSec)
	return rep, nil
}
