package store

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
	"fastinvert/internal/trie"
)

// IndexWriter manages an output directory: numbered run files, the
// docID-range auxiliary map, and the dictionary written at the end.
type IndexWriter struct {
	dir    string
	runs   []RunMeta
	closed bool
}

// RunMeta is one row of the auxiliary docID -> file map ("an auxiliary
// file containing the mapping of document IDs to output file names",
// §III.F).
type RunMeta struct {
	File     string `json:"file"`
	FirstDoc uint32 `json:"first_doc"`
	LastDoc  uint32 `json:"last_doc"`
	Lists    int    `json:"lists"`
	Bytes    int64  `json:"bytes"`
}

// NewIndexWriter creates (or reuses) an output directory.
func NewIndexWriter(dir string) (*IndexWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &IndexWriter{dir: dir}, nil
}

// Dir returns the output directory.
func (w *IndexWriter) Dir() string { return w.dir }

// WriteRun persists one finalized run and records its doc range.
func (w *IndexWriter) WriteRun(b *RunBuilder, firstDoc, lastDoc uint32) error {
	name := fmt.Sprintf("run-%05d.post", len(w.runs))
	data := b.Finalize(firstDoc, lastDoc)
	if err := os.WriteFile(filepath.Join(w.dir, name), data, 0o644); err != nil {
		return err
	}
	w.runs = append(w.runs, RunMeta{
		File:     name,
		FirstDoc: firstDoc,
		LastDoc:  lastDoc,
		Lists:    b.Lists(),
		Bytes:    int64(len(data)),
	})
	return nil
}

// WriteDocLens persists per-document lengths (surviving tokens per
// docID, dense from 0), enabling BM25 length normalization at query
// time. Call before Finish; the file is optional for readers.
func (w *IndexWriter) WriteDocLens(lens []uint32) error {
	buf := make([]byte, 0, 8+len(lens))
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], docLensMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(lens)))
	buf = append(buf, hdr[:]...)
	for _, l := range lens {
		buf = encoding.PutUvarByte(buf, uint64(l))
	}
	return os.WriteFile(filepath.Join(w.dir, "doclens.bin"), buf, 0o644)
}

const docLensMagic = 0x4649444c // "FIDL"

// DocLocation records where a document lives in the source collection
// — the parser Step 1 table of <document ID, document location on
// disk> (§III.C). FileIdx indexes the names table written alongside.
type DocLocation struct {
	FileIdx uint32
	Offset  uint32
	Length  uint32
}

const docTableMagic = 0x46494454 // "FIDT"

// WriteDocTable persists the docID -> source-location table: a file
// name table followed by per-document (file, offset, length) triples,
// dense from docID 0. Call before Finish; optional for readers.
func (w *IndexWriter) WriteDocTable(fileNames []string, locs []DocLocation) error {
	buf := make([]byte, 0, 12+len(locs)*6)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], docTableMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(fileNames)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(locs)))
	buf = append(buf, hdr[:]...)
	for _, name := range fileNames {
		buf = encoding.PutUvarByte(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	for _, l := range locs {
		buf = encoding.PutUvarByte(buf, uint64(l.FileIdx))
		buf = encoding.PutUvarByte(buf, uint64(l.Offset))
		buf = encoding.PutUvarByte(buf, uint64(l.Length))
	}
	return os.WriteFile(filepath.Join(w.dir, "doctable.bin"), buf, 0o644)
}

// parseDocTable decodes doctable.bin bytes. The u32 header counts are
// untrusted: every name costs at least one byte and every doc row at
// least three, so counts are bounded by the remaining file size before
// anything proportional to them is allocated — an 8-byte corrupt file
// must not demand gigabytes.
func parseDocTable(data []byte) (names []string, locs []DocLocation, err error) {
	if len(data) < 12 || binary.LittleEndian.Uint32(data) != docTableMagic {
		return nil, nil, fmt.Errorf("doc table header: %w", ErrCorruptIndex)
	}
	nNames := int(binary.LittleEndian.Uint32(data[4:]))
	nDocs := int(binary.LittleEndian.Uint32(data[8:]))
	rest := len(data) - 12
	if nNames < 0 || nNames > rest {
		return nil, nil, fmt.Errorf("doc table claims %d names in %d bytes: %w", nNames, rest, ErrCorruptIndex)
	}
	if nDocs < 0 || nDocs > rest/3 {
		return nil, nil, fmt.Errorf("doc table claims %d docs in %d bytes: %w", nDocs, rest, ErrCorruptIndex)
	}
	pos := 12
	read := func() (uint64, bool) {
		v, m := encoding.UvarByte(data[pos:])
		if m <= 0 {
			return 0, false
		}
		pos += m
		return v, true
	}
	for i := 0; i < nNames; i++ {
		n, ok := read()
		if !ok || n > uint64(len(data)) || pos+int(n) > len(data) {
			return nil, nil, fmt.Errorf("doc table names: %w", ErrCorruptIndex)
		}
		names = append(names, string(data[pos:pos+int(n)]))
		pos += int(n)
	}
	locs = make([]DocLocation, nDocs)
	for i := 0; i < nDocs; i++ {
		fi, ok1 := read()
		off, ok2 := read()
		ln, ok3 := read()
		if !ok1 || !ok2 || !ok3 || int(fi) >= nNames {
			return nil, nil, fmt.Errorf("doc table rows: %w", ErrCorruptIndex)
		}
		locs[i] = DocLocation{uint32(fi), uint32(off), uint32(ln)}
	}
	return names, locs, nil
}

// readDocTable loads the optional doc table.
func readDocTable(dir string) (names []string, locs []DocLocation, err error) {
	data, err := os.ReadFile(filepath.Join(dir, "doctable.bin"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	return parseDocTable(data)
}

// parseDocLens decodes doclens.bin bytes. Like parseDocTable, the
// header count is checked against the remaining size (one byte per
// entry minimum) before the slice is allocated.
func parseDocLens(data []byte) ([]uint32, error) {
	if len(data) < 8 || binary.LittleEndian.Uint32(data) != docLensMagic {
		return nil, fmt.Errorf("doclens header: %w", ErrCorruptIndex)
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	if n < 0 || n > len(data)-8 {
		return nil, fmt.Errorf("doclens claims %d entries in %d bytes: %w", n, len(data)-8, ErrCorruptIndex)
	}
	lens := make([]uint32, n)
	pos := 8
	for i := 0; i < n; i++ {
		v, m := encoding.UvarByte(data[pos:])
		if m <= 0 {
			return nil, fmt.Errorf("doclens entries: %w", ErrCorruptIndex)
		}
		lens[i] = uint32(v)
		pos += m
	}
	return lens, nil
}

// readDocLens loads the optional document-length file.
func readDocLens(dir string) ([]uint32, error) {
	data, err := os.ReadFile(filepath.Join(dir, "doclens.bin"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	return parseDocLens(data)
}

// parseDocMap decodes docmap.json bytes and validates each row: run
// file names must be plain names inside the index directory (no
// separators, no traversal), doc ranges must be ordered, counts
// non-negative. A hostile docmap must not make the reader open
// arbitrary paths.
func parseDocMap(raw []byte) ([]RunMeta, error) {
	var runs []RunMeta
	if err := json.Unmarshal(raw, &runs); err != nil {
		return nil, fmt.Errorf("docmap (%v): %w", err, ErrCorruptIndex)
	}
	for i, rm := range runs {
		if rm.File == "" || rm.File == "." || rm.File == ".." || rm.File != filepath.Base(rm.File) {
			return nil, fmt.Errorf("docmap run %d: bad file name %q: %w", i, rm.File, ErrCorruptIndex)
		}
		if rm.LastDoc < rm.FirstDoc {
			return nil, fmt.Errorf("docmap run %d: doc range [%d,%d]: %w", i, rm.FirstDoc, rm.LastDoc, ErrCorruptIndex)
		}
		if rm.Lists < 0 || rm.Bytes < 0 {
			return nil, fmt.Errorf("docmap run %d: negative counts: %w", i, ErrCorruptIndex)
		}
	}
	return runs, nil
}

// Finish writes the dictionary and the auxiliary doc map, completing
// the index.
func (w *IndexWriter) Finish(dict []DictEntry) error {
	if w.closed {
		return fmt.Errorf("store: writer already finished: %w", ErrClosed)
	}
	f, err := os.Create(filepath.Join(w.dir, "dictionary.fidc"))
	if err != nil {
		return err
	}
	if err := WriteDictionary(f, dict); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	docmap, err := json.MarshalIndent(w.runs, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(w.dir, "docmap.json"), docmap, 0o644); err != nil {
		return err
	}
	w.closed = true
	return nil
}

// Runs returns the recorded run metadata.
func (w *IndexWriter) Runs() []RunMeta { return w.runs }

// ReaderOptions tunes an IndexReader.
type ReaderOptions struct {
	// CacheBytes is the budget of the reader's decoded-list cache, in
	// encoded bytes of the lists it holds (see ListCache). Zero selects
	// the 32 MiB default; use 1 to effectively disable caching. A
	// server built on the reader replaces this cache with its own.
	CacheBytes int64

	// MergeWorkers bounds the number of concurrent shard workers Merge
	// uses. Zero selects GOMAXPROCS; 1 forces a serial merge. The merged
	// file bytes are identical for every worker count.
	MergeWorkers int

	// MergeCodec selects how Merge encodes each output list: "auto"
	// (per-list self-tuning from density and length), a codec name
	// ("varbyte", "gamma", "golomb", "bitpack", "eliasfano") to force
	// one codec for every list, or empty for "auto". Unknown names fail
	// OpenIndexWith.
	MergeCodec string
}

// IndexReader opens a finished index directory for queries.
//
// Memory model: the dictionary, doc map, doc lengths and doc table are
// loaded up front. Postings stay on disk — each run file (and the
// merged file, when present) is held as an open handle plus its parsed
// entry table, and individual lists are fetched with one positioned
// read and decoded on demand. Decoded lists are cached in a
// byte-budgeted LRU (ListCache) charged their encoded size, so reader
// RSS is bounded by O(tables) plus the decoded form of what the cache
// budget admits, regardless of index size.
//
// Concurrency: an IndexReader is safe for use by any number of
// goroutines after OpenIndex returns. Concurrent first touches of the
// same run file coalesce into a single open+verify. Close may race
// with in-flight readers: each call either completes against the open
// reader or returns ErrClosed, never a torn state.
type IndexReader struct {
	dir     string
	dict    []DictEntry
	runs    []RunMeta
	numDocs int64    // one past the highest docID any run covers
	docLens []uint32 // optional; nil when the index carries no lengths

	docFiles []string      // optional doc table: source file names
	docLocs  []DocLocation // optional doc table: per-doc locations

	reads ReadPath // counters and cache of every file opened below

	mergeMu      sync.Mutex        // serializes Merge invocations
	mergeWorkers int               // shard-worker bound for Merge (0 = GOMAXPROCS)
	mergeSelect  encoding.Selector // per-list codec choice for Merge output

	mu        sync.Mutex
	closed    bool
	runFiles  map[string]*runSlot // lazy run readers, opened on first use
	merged    *RunFile            // non-nil when a trusted merged file is active
	mergedErr error               // sidecar present but merged file unusable

	mergedHits       atomic.Uint64
	runFallbacks     atomic.Uint64
	mergedReadErrors atomic.Uint64
}

// runSlot coalesces concurrent opens of one run file: the first
// goroutine to claim the slot opens and verifies the file once, later
// arrivals block on it and share the handle.
type runSlot struct {
	once sync.Once
	rf   *RunFile
	err  error
}

// OpenIndex reads the dictionary and doc map of a finished index with
// default options.
func OpenIndex(dir string) (*IndexReader, error) {
	return OpenIndexWith(dir, ReaderOptions{})
}

// OpenIndexWith opens a finished index with explicit options. When the
// directory carries a merged file recorded by a trusted sidecar, term
// lookups are served from it with a single positioned read each; a
// sidecar whose merged file fails validation is remembered (see
// Verify) and the reader falls back to per-run assembly.
func OpenIndexWith(dir string, opts ReaderOptions) (*IndexReader, error) {
	codecName := opts.MergeCodec
	if codecName == "" {
		codecName = "auto"
	}
	mergeSelect, err := encoding.SelectorFor(codecName)
	if err != nil {
		return nil, fmt.Errorf("store: merge codec: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, "dictionary.fidc"))
	if err != nil {
		return nil, err
	}
	dict, err := ReadDictionary(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "docmap.json"))
	if err != nil {
		return nil, err
	}
	runs, err := parseDocMap(raw)
	if err != nil {
		return nil, err
	}
	lens, err := readDocLens(dir)
	if err != nil {
		return nil, err
	}
	names, locs, err := readDocTable(dir)
	if err != nil {
		return nil, err
	}
	r := &IndexReader{
		dir:          dir,
		dict:         dict,
		runs:         runs,
		docLens:      lens,
		docFiles:     names,
		docLocs:      locs,
		mergeWorkers: opts.MergeWorkers,
		mergeSelect:  mergeSelect,
		runFiles:     make(map[string]*runSlot),
	}
	r.reads.SetCache(NewListCache(opts.CacheBytes))
	for _, rm := range runs {
		if n := int64(rm.LastDoc) + 1; n > r.numDocs {
			r.numDocs = n
		}
	}
	r.merged, r.mergedErr = r.loadMerged()
	return r, nil
}

// SetCache replaces the reader's decoded-list cache with c, which must
// not be nil: every run and merged file, open or not yet opened, reads
// through c from now on. serve.New installs the server's cache this
// way, so a served reader has exactly one.
func (r *IndexReader) SetCache(c *ListCache) { r.reads.SetCache(c) }

// Close releases the reader: every run (and merged) file handle is
// closed, the decoded-list cache is dropped, and every subsequent
// query method returns ErrClosed. Close is idempotent and safe to call
// while queries are in flight — they either complete or observe
// ErrClosed.
func (r *IndexReader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	slots := r.runFiles
	merged := r.merged
	r.runFiles = nil
	r.merged = nil
	r.mu.Unlock()

	for _, slot := range slots {
		// once.Do waits out any in-flight open, so no handle escapes.
		slot.once.Do(func() { slot.err = ErrClosed })
		if slot.rf != nil {
			slot.rf.Close()
		}
	}
	if merged != nil {
		merged.Close()
	}
	r.reads.cache.Load().purge()
	return nil
}

// checkClosed snapshots the closed flag.
func (r *IndexReader) checkClosed() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	return nil
}

// DocLocation resolves a docID to its source container file, byte
// offset and length; ok is false when the index carries no doc table
// or the docID is out of range.
func (r *IndexReader) DocLocation(doc uint32) (file string, offset, length uint32, ok bool) {
	if int(doc) >= len(r.docLocs) {
		return "", 0, 0, false
	}
	l := r.docLocs[doc]
	return r.docFiles[l.FileIdx], l.Offset, l.Length, true
}

// DocLens returns per-document lengths (tokens per docID) when the
// index was written with them, else nil.
func (r *IndexReader) DocLens() []uint32 { return r.docLens }

// NumDocs reports the collection size the docID-range map implies: one
// past the highest docID any run covers.
func (r *IndexReader) NumDocs() int64 { return r.numDocs }

// runFile returns the lazy reader for one run file, opening and
// CRC-verifying it on first use. The per-file runSlot serializes the
// open while letting distinct files open concurrently.
func (r *IndexReader) runFile(meta RunMeta) (*RunFile, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	slot, ok := r.runFiles[meta.File]
	if !ok {
		slot = &runSlot{}
		r.runFiles[meta.File] = slot
	}
	r.mu.Unlock()
	slot.once.Do(func() {
		rf, err := OpenRunFile(filepath.Join(r.dir, meta.File), &r.reads)
		if err != nil {
			slot.err = fmt.Errorf("store: %s: %w", meta.File, err)
			return
		}
		slot.rf = rf
	})
	if slot.err != nil {
		if errors.Is(slot.err, ErrClosed) {
			return nil, ErrClosed
		}
		// Do not pin a failed open: drop the slot so a later call can
		// retry (transient I/O errors should not poison the cache).
		r.mu.Lock()
		if r.runFiles != nil && r.runFiles[meta.File] == slot {
			delete(r.runFiles, meta.File)
		}
		r.mu.Unlock()
		return nil, slot.err
	}
	return slot.rf, nil
}

// Terms reports the dictionary size.
func (r *IndexReader) Terms() int { return len(r.dict) }

// Dictionary exposes the loaded dictionary entries (canonical order).
func (r *IndexReader) Dictionary() []DictEntry { return r.dict }

// Runs exposes the doc-range map.
func (r *IndexReader) Runs() []RunMeta { return r.runs }

// MergedActive reports whether term lookups are currently served from
// a validated merged file.
func (r *IndexReader) MergedActive() bool { return r.mergedFile() != nil }

// mergedFile snapshots the active merged file, nil when there is none.
func (r *IndexReader) mergedFile() *RunFile {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.merged
}

// MergedErr returns the validation error of a merged sidecar that was
// present but could not be trusted (nil when absent or healthy). The
// reader still serves queries by per-run assembly in that state;
// Verify surfaces the error.
func (r *IndexReader) MergedErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mergedErr
}

// ReaderStats is a point-in-time snapshot of reader activity.
type ReaderStats struct {
	MergedActive  bool
	MergedHits    uint64 // lookups answered from the merged file
	RunFallbacks  uint64 // lookups assembled from per-run partial lists, for either reason
	ListBytesRead uint64 // compressed list bytes fetched from disk

	// MergedReadErrors counts the RunFallbacks taken because a read of
	// the active merged file failed; the rest found no merged file.
	MergedReadErrors uint64

	// CodecDecodes counts lists fetched from disk by codec name (see
	// ReadPath.ListsByCodec), revealing which encodings the
	// self-tuning selection actually serves.
	CodecDecodes map[string]uint64

	// The installed cache's counters (see ListCache).
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheBytes     int64 // encoded bytes charged for resident lists
	CacheEntries   int
}

// Stats snapshots reader counters.
func (r *IndexReader) Stats() ReaderStats {
	cs := r.reads.cache.Load().Stats()
	return ReaderStats{
		MergedActive:     r.MergedActive(),
		MergedHits:       r.mergedHits.Load(),
		RunFallbacks:     r.runFallbacks.Load(),
		MergedReadErrors: r.mergedReadErrors.Load(),
		ListBytesRead:    r.reads.ListBytes(),
		CodecDecodes:     r.reads.ListsByCodec(),
		CacheHits:        cs.Hits,
		CacheMisses:      cs.Misses,
		CacheEvictions:   cs.Evictions,
		CacheBytes:       cs.Bytes,
		CacheEntries:     cs.Entries,
	}
}

// LookupTerm resolves a normalized term to its dictionary entry. A
// miss returns an error wrapping ErrTermNotFound — use this when the
// caller must distinguish "unknown term" from "known term with no
// postings in range"; Postings folds both into an empty list.
func (r *IndexReader) LookupTerm(term string) (DictEntry, error) {
	if err := r.checkClosed(); err != nil {
		return DictEntry{}, err
	}
	coll := trie.IndexString(term)
	e, ok := Lookup(r.dict, int32(coll), term)
	if !ok {
		return DictEntry{}, fmt.Errorf("store: %q: %w", term, ErrTermNotFound)
	}
	return e, nil
}

// Postings returns the full postings list of a term (stemmed, lowercase
// — the caller applies the same normalization as indexing). Missing
// terms yield an empty list. With a merged file active this is one
// table hit, one positioned read and one decode; otherwise partial
// lists are assembled across run files in doc order.
func (r *IndexReader) Postings(term string) (*postings.List, error) {
	return r.PostingsRange(term, 0, ^uint32(0))
}

// PostingsCtx is Postings under a context. When ctx carries a
// telemetry.RequestTrace the fetch is attributed span by span
// (dictionary lookup, pread, per-codec decode, per-run merge);
// otherwise it is exactly Postings — the trace probe is a single
// allocation-free context lookup.
func (r *IndexReader) PostingsCtx(ctx context.Context, term string) (*postings.List, error) {
	l, _, err := r.postingsRange(ctx, term, 0, ^uint32(0))
	return l, err
}

// PostingsEncodedCtx is PostingsCtx plus the encoded (on-disk) byte
// size of the entries that produced the list — the compressed
// footprint the codec registry actually achieved, available even on
// cache hits, and what ListCache charges for them. (segment.Manager's
// PostingsSizedCtx is the same method; the two names differ only
// because the benchmark pins both.)
func (r *IndexReader) PostingsEncodedCtx(ctx context.Context, term string) (*postings.List, int64, error) {
	return r.postingsRange(ctx, term, 0, ^uint32(0))
}

// PostingsRange restricts the fetch to [minDoc, maxDoc]. On the
// per-run path only runs whose doc ranges overlap are touched — the
// paper's "faster search when narrowed down to a range of document
// IDs" benefit of the per-run format; the merged path slices the
// single list by binary search.
func (r *IndexReader) PostingsRange(term string, minDoc, maxDoc uint32) (*postings.List, error) {
	l, _, err := r.postingsRange(context.Background(), term, minDoc, maxDoc)
	return l, err
}

// lookup resolves a term to its dictionary entry under a dict span.
func (r *IndexReader) lookup(ctx context.Context, term string) (DictEntry, bool) {
	dsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageDict)
	e, ok := Lookup(r.dict, int32(trie.IndexString(term)), term)
	dsp.End()
	return e, ok
}

func (r *IndexReader) postingsRange(ctx context.Context, term string, minDoc, maxDoc uint32) (*postings.List, int64, error) {
	if err := r.checkClosed(); err != nil {
		return nil, 0, err
	}
	e, ok := r.lookup(ctx, term)
	if !ok {
		return &postings.List{}, 0, nil
	}

	// The merged file is one part holding the whole list; without it the
	// parts are the runs overlapping the range. Either way the list is
	// the concatenation of what the parts hold.
	note := "run-fallback:unmerged"
	if m := r.mergedFile(); m != nil {
		l, enc, _, err := concatParts(ctx, []*RunFile{m}, e)
		if err == nil {
			r.mergedHits.Add(1)
			return sliceRange(l, minDoc, maxDoc), enc, nil
		}
		if errors.Is(err, ErrClosed) {
			return nil, 0, err
		}
		// Merged read failed under us (e.g. the file vanished or went
		// bad after open): serve from the runs instead of failing the
		// query.
		r.mergedReadErrors.Add(1)
		note = "run-fallback:merged-read-error"
	}

	r.runFallbacks.Add(1)
	msp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageMerge)
	defer msp.End()
	msp.SetNote(note)
	parts := make([]*RunFile, 0, len(r.runs))
	for _, rm := range r.runs {
		if rm.LastDoc < minDoc || rm.FirstDoc > maxDoc {
			continue
		}
		rf, err := r.runFile(rm)
		if err != nil {
			return nil, 0, err
		}
		parts = append(parts, rf)
	}
	l, enc, n, err := concatParts(ctx, parts, e)
	if err != nil {
		return nil, 0, err
	}
	msp.AddItems(int64(n))
	// Trim postings the boundary runs carry outside [minDoc, maxDoc] so
	// both paths return the same exact range.
	return sliceRange(l, minDoc, maxDoc), enc, nil
}

// concatParts reads the dictionary entry's list from every part that
// holds one and concatenates them in the order given (ascending doc
// ranges). It also returns the encoded bytes of the contributing
// entries and how many parts contributed. A lone part's list is
// returned as read — possibly shared with the decoded-list cache, so
// results must not be mutated.
func concatParts(ctx context.Context, parts []*RunFile, e DictEntry) (out *postings.List, encoded int64, n int, err error) {
	for _, rf := range parts {
		re, ok := rf.Find(uint32(e.Collection), uint32(e.Slot))
		if !ok {
			continue
		}
		part, err := rf.ReadListCtx(ctx, re)
		if err != nil {
			return nil, 0, 0, err
		}
		encoded += int64(re.Length)
		n++
		if len(parts) == 1 {
			return part, encoded, n, nil
		}
		if out == nil {
			out = &postings.List{}
		}
		if err := postings.Concat(out, part, nil); err != nil {
			return nil, 0, 0, fmt.Errorf("store: %s: %w", rf.name, err)
		}
	}
	return out, encoded, n, nil
}

// BlockPostingsCtx returns the block-at-a-time view of a term from the
// merged file (RunFile.BlocksCtx): the parsed skip table with the
// codec bodies left undecoded, or a list too short for the blocked
// layout as one exact pseudo-block, costing one dictionary lookup and
// at most one positioned read. The ranked path decodes only the blocks
// its pruning bounds cannot skip. Returns (nil, nil) when no merged
// file is active or a read of it failed — block evaluation is
// unavailable and the caller falls back to the exhaustive whole-list
// path, which can still answer from the runs. Missing terms return an
// empty TermBlocks.
func (r *IndexReader) BlockPostingsCtx(ctx context.Context, term string) (*TermBlocks, error) {
	if err := r.checkClosed(); err != nil {
		return nil, err
	}
	m := r.mergedFile()
	if m == nil {
		return nil, nil
	}
	tb := &TermBlocks{}
	e, ok := r.lookup(ctx, term)
	if !ok {
		return tb, nil
	}
	re, ok := m.Find(uint32(e.Collection), uint32(e.Slot))
	if !ok {
		return tb, nil
	}
	bl, err := m.BlocksCtx(ctx, re)
	if errors.Is(err, ErrClosed) {
		return nil, err
	}
	if err != nil {
		// Merged read failed under us: the exhaustive path the caller
		// falls back to counts it and serves from the runs.
		return nil, nil
	}
	r.mergedHits.Add(1)
	if bl != nil {
		tb.Lists = append(tb.Lists, bl)
	}
	return tb, nil
}

// sliceRange narrows a sorted postings list to [minDoc, maxDoc]. The
// full range returns the list unchanged (it may be cache-shared);
// narrowed results alias the original's backing arrays, which is safe
// under the lists-are-immutable contract.
func sliceRange(l *postings.List, minDoc, maxDoc uint32) *postings.List {
	if l == nil {
		return &postings.List{}
	}
	lo := 0
	hi := len(l.DocIDs)
	if minDoc > 0 {
		lo = sort.Search(len(l.DocIDs), func(i int) bool { return l.DocIDs[i] >= minDoc })
	}
	if maxDoc < ^uint32(0) {
		hi = sort.Search(len(l.DocIDs), func(i int) bool { return l.DocIDs[i] > maxDoc })
	}
	if lo == 0 && hi == len(l.DocIDs) {
		return l
	}
	out := &postings.List{DocIDs: l.DocIDs[lo:hi], TFs: l.TFs[lo:hi]}
	if l.Positions != nil {
		out.Positions = l.Positions[lo:hi]
	}
	return out
}
