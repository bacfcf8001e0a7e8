package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
	"fastinvert/internal/trie"
)

// TraceSink receives finished background-operation traces (seal,
// compaction) so the serving layer can retain them next to request
// traces and correlate query latency with concurrent maintenance.
type TraceSink func(*telemetry.RequestTrace)

// ErrUnknownDoc reports a Delete of a docID that was never assigned.
var ErrUnknownDoc = errors.New("segment: unknown document")

// Options configures a Manager.
type Options struct {
	// Codec names the postings codec for sealed and compacted
	// segments: "auto" (default), "varbyte", "gamma", "golomb",
	// "bitpack" or "eliasfano".
	Codec string

	// Positional records token positions, enabling phrase queries.
	// Must be consistent across every open of the same directory:
	// positional and non-positional lists cannot concatenate.
	Positional bool

	// SealEvery seals the memtable automatically once it holds this
	// many documents; 0 means manual sealing only.
	SealEvery int

	// CompactAt starts a background compaction when a seal leaves at
	// least this many segments on disk; 0 means manual compaction.
	CompactAt int

	// CompactWorkers bounds the sharded parallel merge; 0 means
	// GOMAXPROCS.
	CompactWorkers int
}

// Stats is a point-in-time snapshot of a Manager.
type Stats struct {
	Docs           uint32 // docIDs assigned so far
	Deleted        uint32 // currently tombstoned documents
	Purged         uint32 // docs physically removed by compactions
	Segments       int    // sealed segments on disk
	SegmentBytes   int64  // their total run-file bytes
	SegmentLists   int    // their total postings lists
	MemtableDocs   uint32
	MemtableTerms  int
	MemtableTokens int64
	Seals          uint64
	Compactions    uint64
	Generation     uint64
}

// Manager is a live, incrementally updatable index over one directory.
//
// Concurrency: AddDocument, Delete, Seal and the compaction commit are
// serialized by a write lock. Queries run lock-free against immutable
// generation-stamped views — a query acquires the current view,
// finishes against it however long it takes, and a concurrent seal or
// compaction simply swaps in the next view for later queries.
//
// Durability: sealed segments, the manifest and sealed-doc tombstones
// are written atomically and fsynced. The memtable has no write-ahead
// log — documents added since the last seal (and deletions recorded
// against them) are lost on crash, by design (§DESIGN 14).
type Manager struct {
	dir  string
	opts Options
	sel  encoding.Selector

	// writeMu serializes all mutation: document adds and deletes,
	// seals, and the (brief) commit phase of a compaction.
	writeMu sync.Mutex

	// mu guards the current view, manifest and memtable pointers; held
	// only for pointer swaps, never across I/O.
	mu  sync.RWMutex
	cur *view
	man *Manifest
	mem *memtable

	nextDoc atomic.Uint32
	purged  atomic.Uint32 // docs physically removed by past compactions
	tomb    atomic.Pointer[bitmap]
	// gone counts every document deleted so far, still tombstoned or
	// already purged: what NumDocs subtracts. A compaction only moves
	// documents from the first state to the second, so its commit
	// leaves gone alone and no query reads a collection size torn
	// between the tomb and purged stores.
	gone atomic.Uint32
	gen  atomic.Uint64

	compactMu      sync.Mutex  // one compaction at a time
	compactPending atomic.Bool // a background compaction is queued or running

	ctx    context.Context
	cancel context.CancelFunc
	bg     sync.WaitGroup
	closed atomic.Bool

	seals       atomic.Uint64
	compactions atomic.Uint64

	// reads counts what queries fetched from the sealed segments, the
	// live-mode counterpart of store.ReaderStats' read counters.
	reads store.ReadCounters

	traceSink atomic.Pointer[TraceSink]

	errMu          sync.Mutex
	lastCompactErr error
}

// Open loads (or creates) a live index directory.
func Open(dir string, opts Options) (*Manager, error) {
	codec := opts.Codec
	if codec == "" {
		codec = "auto"
	}
	sel, err := encoding.SelectorFor(codec)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	tomb, err := loadTombstones(dir)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if tomb.numDocs > man.NextDoc {
		return nil, fmt.Errorf("segment: tombstones cover %d docs but only %d are sealed: %w",
			tomb.numDocs, man.NextDoc, store.ErrCorruptIndex)
	}
	// A tombstone file older than the manifest (crash between the two
	// writes) keeps its bits; deletions recorded in the lost window are
	// gone, like the unsealed documents they may have referenced.
	tomb = tomb.grown(man.NextDoc)

	mem := newMemtable(man.NextDoc, opts.Positional)
	m := &Manager{dir: dir, opts: opts, sel: sel, man: man, mem: mem}
	segs := make([]*segment, 0, len(man.Segments))
	for _, sm := range man.Segments {
		s, err := openSegment(dir, sm, &m.reads)
		if err != nil {
			for _, prev := range segs {
				prev.run.Close()
			}
			return nil, fmt.Errorf("segment: %w", err)
		}
		segs = append(segs, s)
	}
	m.opts.Codec = codec
	m.nextDoc.Store(man.NextDoc)
	m.purged.Store(man.Purged)
	m.tomb.Store(tomb)
	m.gone.Store(man.Purged + tomb.deleted)
	m.cur = newView(segs, mem, 0)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m, nil
}

// Gen returns the current index generation. It advances on every
// visible mutation (add, delete, seal, compaction), which makes it a
// safe cache-key component: postings cached under one generation can
// never serve a later state.
func (m *Manager) Gen() uint64 { return m.gen.Load() }

// SetTraceSink installs (or clears, with nil) the receiver for
// background-operation traces. Until a sink is set, seal and
// compaction tracing is off entirely — the operations run with inert
// span handles.
func (m *Manager) SetTraceSink(fn TraceSink) {
	if fn == nil {
		m.traceSink.Store(nil)
		return
	}
	m.traceSink.Store(&fn)
}

// opTrace starts a background-operation trace when a sink is
// installed, nil otherwise (every span call on nil is a no-op).
func (m *Manager) opTrace(op string) *telemetry.RequestTrace {
	if m.traceSink.Load() == nil {
		return nil
	}
	return telemetry.NewRequestTrace(op)
}

// finishOp seals an operation trace and hands it to the sink.
func (m *Manager) finishOp(tr *telemetry.RequestTrace, err error) {
	if tr == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	tr.SetGeneration(m.gen.Load())
	tr.Finish(0, msg)
	if fn := m.traceSink.Load(); fn != nil {
		(*fn)(tr)
	}
}

// CodecDecodes reports the lists queries fetched from sealed segments
// by codec name, with the meaning of store.ReaderStats.CodecDecodes.
func (m *Manager) CodecDecodes() map[string]uint64 { return m.reads.ListsByCodec() }

// NumDocs reports the number of non-deleted documents — the collection
// size IDF is computed from: assigned IDs (Stats().Docs) minus every
// document deleted since, tombstoned or already purged by a compaction.
func (m *Manager) NumDocs() int64 {
	return int64(m.nextDoc.Load()) - int64(m.gone.Load())
}

// IsDeleted reports whether doc carries a tombstone.
func (m *Manager) IsDeleted(doc uint32) bool { return m.tomb.Load().has(doc) }

// AddDocument assigns the next docID, parses and indexes text into the
// memtable, and (when Options.SealEvery is hit) seals. The docID is
// consumed even when text indexes to nothing — every document occupies
// its slot, exactly like the batch pipeline.
func (m *Manager) AddDocument(text []byte) (uint32, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		return 0, store.ErrClosed
	}
	doc := m.nextDoc.Load()
	if doc == ^uint32(0) {
		return 0, errors.New("segment: document ID space exhausted")
	}
	if err := m.mem.add(doc, text); err != nil {
		return 0, fmt.Errorf("segment: doc %d: %w", doc, err)
	}
	m.nextDoc.Store(doc + 1)
	m.gen.Add(1)
	if m.opts.SealEvery > 0 && int(m.mem.numDocs()) >= m.opts.SealEvery {
		if err := m.sealLocked(); err != nil {
			return doc, fmt.Errorf("segment: auto-seal: %w", err)
		}
	}
	return doc, nil
}

// Delete tombstones a document. Deleting sealed documents persists
// immediately; deleting a memtable document is recorded in memory only
// (it becomes durable at the next seal, alongside the document).
// Deleting an already-deleted document is a no-op.
func (m *Manager) Delete(doc uint32) error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		return store.ErrClosed
	}
	next := m.nextDoc.Load()
	if doc >= next {
		return fmt.Errorf("%w: doc %d (next is %d)", ErrUnknownDoc, doc, next)
	}
	old := m.tomb.Load()
	if old.has(doc) {
		return nil
	}
	nb := old.withDoc(doc, next)
	m.mu.RLock()
	sealed := m.man.NextDoc
	m.mu.RUnlock()
	if doc < sealed {
		if err := saveTombstones(m.dir, nb, sealed); err != nil {
			return fmt.Errorf("segment: persisting tombstone: %w", err)
		}
	}
	m.tomb.Store(nb)
	m.gone.Add(1)
	m.gen.Add(1)
	return nil
}

// acquire retains the current view for one query.
func (m *Manager) acquire() (*view, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.cur == nil {
		return nil, store.ErrClosed
	}
	m.cur.retain()
	return m.cur, nil
}

// PostingsCtx assembles the term's live postings across sealed
// segments and the memtable, dropping tombstoned documents. Unknown
// terms yield an empty list.
func (m *Manager) PostingsCtx(ctx context.Context, term string) (*postings.List, error) {
	l, _, err := m.PostingsSizedCtx(ctx, term)
	return l, err
}

// PostingsSizedCtx additionally reports the term's encoded size in
// bytes: exact for sealed segments (on-disk list lengths), estimated
// for the memtable portion. Cache layers use it to charge budgets by
// what the postings cost at rest rather than their decoded footprint.
// (store.IndexReader's PostingsEncodedCtx is the same method; the two
// names differ only because the benchmark pins both.)
// A telemetry.RequestTrace carried by ctx sees the live read anatomy:
// one merge span over the sealed-segment fan-out (with per-segment
// dict/pread/decode children) and one memtable span for the in-memory
// tail, plus the view generation the query ran against.
func (m *Manager) PostingsSizedCtx(ctx context.Context, term string) (*postings.List, int64, error) {
	// The bitmap before the view, in that order: a compaction swaps in
	// the view without the purged postings and only then clears their
	// bits, so a bitmap loaded first is never too short for the view
	// acquired after it (BlockPostingsCtx reads in the same order).
	var drop func(doc uint32) bool
	if dead := m.tomb.Load(); dead != nil && dead.deleted > 0 {
		drop = dead.has
	}
	v, err := m.acquire()
	if err != nil {
		return nil, 0, err
	}
	defer v.release()
	tr := telemetry.TraceFrom(ctx)
	tr.SetGeneration(v.gen)
	coll := int32(trie.IndexString(term))
	out := &postings.List{}
	var enc int64
	msp := tr.StartSpan(telemetry.ReqStageMerge)
	msp.AddItems(int64(len(v.segs)))
	for _, s := range v.segs {
		part, n, err := s.postingsCtx(ctx, coll, term)
		if err != nil {
			msp.End()
			return nil, 0, err
		}
		if part == nil {
			continue
		}
		enc += n
		if err := concatLive(out, part, drop); err != nil {
			msp.End()
			return nil, 0, err
		}
	}
	msp.End()
	memsp := tr.StartSpan(telemetry.ReqStageMemtable)
	defer memsp.End()
	if part := v.mem.postings(term); part != nil {
		enc += memEncodedEstimate(part)
		if err := concatLive(out, part, drop); err != nil {
			return nil, 0, err
		}
	}
	return out, enc, nil
}

// concatLive is postings.Concat with its failures typed: doc ranges
// that interleave across segments, or positional and plain lists for
// one term, mean the index is corrupt.
func concatLive(dst, part *postings.List, drop func(doc uint32) bool) error {
	if err := postings.Concat(dst, part, drop); err != nil {
		return fmt.Errorf("segment: %v: %w", err, store.ErrCorruptIndex)
	}
	return nil
}

// BlockPostingsCtx returns the term's block-at-a-time view across the
// sealed segments and the memtable, in ascending disjoint docID-range
// order: per segment what store.RunFile.BlocksCtx gives (stored skip
// tables for blocked lists, exact pseudo-blocks for short ones), then
// the memtable tail as one more exact pseudo-block.
//
// It returns (nil, nil) — block evaluation unavailable, caller falls
// back to exhaustive scoring — whenever any tombstone is live:
// tombstones hide postings from Postings but not from block counts, so
// document frequencies (hence evaluator score bounds) would disagree
// with the exhaustive path. A non-nil empty TermBlocks means the term
// does not occur anywhere.
func (m *Manager) BlockPostingsCtx(ctx context.Context, term string) (*store.TermBlocks, error) {
	if d := m.tomb.Load(); d != nil && d.deleted > 0 {
		return nil, nil
	}
	v, err := m.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	tr := telemetry.TraceFrom(ctx)
	tr.SetGeneration(v.gen)
	coll := int32(trie.IndexString(term))
	tb := &store.TermBlocks{}
	msp := tr.StartSpan(telemetry.ReqStageMerge)
	msp.AddItems(int64(len(v.segs)))
	for _, s := range v.segs {
		bl, err := s.blocksCtx(ctx, coll, term)
		if err != nil {
			msp.End()
			return nil, err
		}
		if bl != nil {
			tb.Lists = append(tb.Lists, bl)
		}
	}
	msp.End()
	memsp := tr.StartSpan(telemetry.ReqStageMemtable)
	// memtable.postings already deep-copies, so the pseudo-block cannot
	// alias a list tail a concurrent add is mutating.
	if part := v.mem.postings(term); part != nil {
		tb.Lists = append(tb.Lists, store.BlockListFromList(part))
	}
	memsp.End()
	return tb, nil
}

// memEncodedEstimate prices a memtable list as if varbyte-encoded:
// small gaps and TFs are mostly one byte each, positions likewise.
func memEncodedEstimate(l *postings.List) int64 {
	n := int64(2 * l.Len())
	for _, ps := range l.Positions {
		n += int64(len(ps)) + 1
	}
	return n
}

// Dictionary returns the union of all live terms in (collection, term)
// order. Slots are segment-local and meaningless across the union;
// entries keep the slot of the first segment holding the term. Terms
// whose every posting is tombstoned remain listed until a compaction
// physically drops them — their Postings are empty.
func (m *Manager) Dictionary() []store.DictEntry {
	v, err := m.acquire()
	if err != nil {
		return nil
	}
	defer v.release()
	var all []store.DictEntry
	for _, s := range v.segs {
		all = append(all, s.dict...)
	}
	all = v.mem.dictionary(all)
	store.SortDictEntries(all)
	out := all[:0]
	for i, e := range all {
		if i > 0 && all[i-1].Collection == e.Collection && all[i-1].Term == e.Term {
			continue
		}
		out = append(out, e)
	}
	return out
}

// DocLens reports no document lengths: live indexes rank with plain
// TF-IDF (no BM25 length normalization).
func (m *Manager) DocLens() []uint32 { return nil }

// Seal freezes the memtable into an immutable on-disk segment and
// starts a fresh memtable. A no-op when the memtable is empty.
func (m *Manager) Seal() error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		return store.ErrClosed
	}
	return m.sealLocked()
}

func segFileName(id uint64) string  { return fmt.Sprintf("seg-%06d.post", id) }
func dictFileName(id uint64) string { return fmt.Sprintf("seg-%06d.dict", id) }

// sealLocked runs the seal under writeMu: encode the memtable, write
// segment files, persist the manifest (the commit point), persist
// tombstones over the new frontier, then swap the view. Queries keep
// running throughout — only the final pointer swap takes the write
// side of mu, and it does no I/O.
func (m *Manager) sealLocked() (err error) {
	if m.mem.numDocs() == 0 {
		return nil
	}
	tr := m.opTrace("seal")
	if tr != nil {
		defer func() { m.finishOp(tr, err) }()
	}
	next := m.nextDoc.Load()
	id := m.man.NextSeg
	meta := SegmentMeta{
		ID:       id,
		File:     segFileName(id),
		Dict:     dictFileName(id),
		FirstDoc: m.mem.firstDoc,
		LastDoc:  next - 1,
		Docs:     next - m.mem.firstDoc,
	}
	tr.SetAttr("segment", id)
	tr.SetAttr("docs", meta.Docs)
	esp := tr.StartSpan(telemetry.ReqStageEncode)
	data, dict, lists, err := m.mem.seal(m.sel, next-1)
	if err != nil {
		esp.End()
		return err
	}
	esp.AddBytes(int64(len(data)))
	esp.AddItems(int64(lists))
	esp.End()
	meta.Lists = lists
	meta.Bytes = int64(len(data))
	wsp := tr.StartSpan(telemetry.ReqStageWrite)
	wsp.AddBytes(int64(len(data)))
	if err := writeFileAtomic(filepath.Join(m.dir, meta.File), data); err != nil {
		wsp.End()
		return err
	}
	if err := writeDictFile(m.dir, meta.Dict, dict); err != nil {
		wsp.End()
		os.Remove(filepath.Join(m.dir, meta.File))
		return err
	}
	seg, err := openSegment(m.dir, meta, &m.reads)
	wsp.End()
	if err != nil {
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return err
	}
	csp := tr.StartSpan(telemetry.ReqStageCommit)
	newMan := &Manifest{
		Version:  manifestVersion,
		NextDoc:  next,
		NextSeg:  id + 1,
		Purged:   m.man.Purged,
		Segments: append(append([]SegmentMeta(nil), m.man.Segments...), meta),
	}
	if err := newMan.save(m.dir); err != nil {
		csp.End()
		seg.run.Close()
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return err
	}
	// Manifest first, then tombstones: a crash between the two loses
	// recent deletions, never resurrects stale ones (see Open).
	if err := saveTombstones(m.dir, m.tomb.Load(), next); err != nil {
		csp.End()
		return err
	}
	newMem := newMemtable(next, m.opts.Positional)
	gen := m.gen.Add(1)
	m.mu.Lock()
	old := m.cur
	m.man = newMan
	m.mem = newMem
	segs := append(append([]*segment(nil), old.segs...), seg)
	m.cur = newView(segs, newMem, gen)
	nSegs := len(segs)
	m.mu.Unlock()
	old.release()
	csp.End()
	m.seals.Add(1)
	if m.opts.CompactAt > 0 && nSegs >= m.opts.CompactAt {
		m.startBackgroundCompaction()
	}
	return nil
}

// startBackgroundCompaction queues at most one compaction goroutine.
func (m *Manager) startBackgroundCompaction() {
	if m.closed.Load() || !m.compactPending.CompareAndSwap(false, true) {
		return
	}
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		defer m.compactPending.Store(false)
		err := m.Compact(m.ctx)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, store.ErrClosed) {
			m.errMu.Lock()
			m.lastCompactErr = err
			m.errMu.Unlock()
		}
	}()
}

// LastCompactionError reports the most recent background-compaction
// failure, if any.
func (m *Manager) LastCompactionError() error {
	m.errMu.Lock()
	defer m.errMu.Unlock()
	return m.lastCompactErr
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Docs:        m.nextDoc.Load(),
		Seals:       m.seals.Load(),
		Compactions: m.compactions.Load(),
		Generation:  m.gen.Load(),
	}
	st.Purged = m.purged.Load()
	if d := m.tomb.Load(); d != nil {
		st.Deleted = d.deleted
	}
	v, err := m.acquire()
	if err != nil {
		return st
	}
	defer v.release()
	st.Segments = len(v.segs)
	for _, s := range v.segs {
		st.SegmentBytes += s.meta.Bytes
		st.SegmentLists += s.meta.Lists
	}
	st.MemtableDocs = v.mem.numDocs()
	st.MemtableTerms = v.mem.terms()
	st.MemtableTokens = v.mem.numTokens()
	return st
}

// Close seals any buffered documents, waits for background work, and
// releases every segment. Idempotent.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	m.cancel()
	m.bg.Wait()
	m.writeMu.Lock()
	err := m.sealLocked()
	m.mu.Lock()
	v := m.cur
	m.cur = nil
	m.mu.Unlock()
	m.writeMu.Unlock()
	if v != nil {
		v.release()
	}
	return err
}
