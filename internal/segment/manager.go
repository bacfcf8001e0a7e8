package segment

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
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
	MemtableDocs   uint32 // the live memtable's, not the frozen one's
	MemtableTerms  int
	MemtableTokens int64
	Sealing        uint32        // frozen documents whose seal has not committed
	SealWait       time.Duration // writers' time waiting on a previous seal
	Seals          uint64
	SealErrors     uint64
	Compactions    uint64
	Generation     uint64
}

// Manager is a live, incrementally updatable index over one directory.
//
// Concurrency: AddDocument, Delete, the memtable freeze and the commit
// phases of seals and compactions are serialized by a write lock. A
// full memtable is frozen and swapped for a fresh one under that lock;
// a seal goroutine then encodes and writes it with no lock held, and
// takes the lock only to commit. Queries run lock-free against
// immutable generation-stamped views — a query acquires the current
// view, finishes against it however long it takes, and a concurrent
// freeze, seal or compaction simply swaps in the next view for later
// queries.
//
// Durability: sealed segments, the manifest and sealed-doc tombstones
// are written atomically and fsynced; a document is durable once the
// manifest naming its segment is saved. The memtables have no
// write-ahead log — documents not yet sealed (and deletions recorded
// against them) are lost on crash, by design (§DESIGN 14).
type Manager struct {
	dir  string
	opts Options
	sel  encoding.Selector

	// writeMu serializes all mutation: document adds and deletes,
	// freezes, and the (brief) commit phases of seals and compactions.
	// sealDone, on writeMu, is broadcast when a seal goroutine ends.
	writeMu  sync.Mutex
	sealDone *sync.Cond

	// Writer state, under writeMu. The parser and its block belong to
	// the writer, not to a memtable, so the token cache survives seals.
	p       *parser.Parser
	blk     *parser.Block
	nextSeg uint64 // the next segment ID to reserve
	// sealing is set while a seal goroutine runs for the frozen
	// memtable. sealErr is the last seal's failure; a memtable whose
	// seal failed stays frozen and searchable until a retry commits it.
	sealing  bool
	sealErr  error
	frozenID uint64    // segment ID reserved for the frozen memtable
	frozenAt time.Time // when it froze

	// mu guards the current view, manifest and memtable pointers; held
	// only for pointer swaps, never across I/O.
	mu     sync.RWMutex
	cur    *view
	man    *Manifest
	mem    *memtable
	frozen *memtable // the memtable being sealed; nil when none

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
	sealErrors  atomic.Uint64
	sealWait    atomic.Int64 // nanoseconds
	compactions atomic.Uint64

	// reads counts what queries fetched from the sealed segments, the
	// live-mode counterpart of store.ReaderStats' read counters, and
	// holds the cache SetCache installs over them.
	reads store.ReadPath

	traceSink    atomic.Pointer[TraceSink]
	sealObserver atomic.Pointer[func(time.Duration)]

	// sealHook, when set (tests only), runs on the seal goroutine
	// before anything is written; an error fails the seal.
	sealHook func() error

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

	mem := newMemtable(man.NextDoc, 0)
	p := parser.New(nil)
	p.Positional = opts.Positional
	m := &Manager{dir: dir, opts: opts, sel: sel, man: man, mem: mem,
		p: p, blk: parser.NewBlock(0), nextSeg: man.NextSeg}
	m.sealDone = sync.NewCond(&m.writeMu)
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
	m.cur = newView(segs, nil, mem, 0)
	m.ctx, m.cancel = context.WithCancel(context.Background())
	return m, nil
}

// Gen returns the current index generation. It advances on every
// visible mutation (add, delete, seal, compaction); traces and the
// ingest and delete responses report it.
func (m *Manager) Gen() uint64 { return m.gen.Load() }

// SetCache installs c as the decoded-list cache of every sealed
// segment, present and future; nil, the default, reads uncached. A
// segment file is immutable, so its cached lists stay valid until a
// compaction retires it; the memtables are never cached, and
// tombstones are applied after the cache, at concatenation.
func (m *Manager) SetCache(c *store.ListCache) { m.reads.SetCache(c) }

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

// SetSealObserver installs (or clears, with nil) a receiver for the
// duration of every committed seal, from freeze to commit.
func (m *Manager) SetSealObserver(fn func(time.Duration)) {
	if fn == nil {
		m.sealObserver.Store(nil)
		return
	}
	m.sealObserver.Store(&fn)
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
// memtable, and — when the memtable reaches Options.SealEvery — freezes
// it and starts its seal in the background. The docID is consumed even
// when text indexes to nothing — every document occupies its slot,
// exactly like the batch pipeline.
//
// An add waits on a seal only when it fills the memtable while the
// previous seal is still running. A failed seal is reported by the next
// add, which refuses its document and restarts the seal.
func (m *Manager) AddDocument(text []byte) (uint32, error) {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		return 0, store.ErrClosed
	}
	if err := m.sealErr; err != nil && !m.sealing {
		m.retrySealLocked()
		return 0, fmt.Errorf("segment: seal: %w", err)
	}
	// A writer waiting to freeze a full memtable let this one in.
	if err := m.freezeFullLocked(); err != nil {
		return 0, err
	}
	doc := m.nextDoc.Load()
	if doc == ^uint32(0) {
		return 0, errors.New("segment: document ID space exhausted")
	}
	m.blk.Reset()
	m.p.ParseDoc(0, text, m.blk)
	if err := m.mem.add(doc, m.blk); err != nil {
		return 0, fmt.Errorf("segment: doc %d: %w", doc, err)
	}
	m.nextDoc.Store(doc + 1)
	m.gen.Add(1)
	// The document is in and searchable. If the previous seal fails or
	// the manager closes while this writer waits to freeze, the next add
	// reports it, or Close seals the memtable.
	_ = m.freezeFullLocked()
	return doc, nil
}

// freezeFullLocked freezes the memtable once it holds SealEvery
// documents. With the previous seal still running it first waits for
// it, writeMu released, and charges the wait to Stats.SealWait; it
// fails when that seal failed (its memtable still holds the one frozen
// place) or the manager closed meanwhile.
func (m *Manager) freezeFullLocked() error {
	for m.opts.SealEvery > 0 && int(m.mem.numDocs()) >= m.opts.SealEvery {
		switch {
		case m.sealing:
			t := time.Now()
			m.sealDone.Wait()
			m.sealWait.Add(int64(time.Since(t)))
		case m.closed.Load():
			return store.ErrClosed
		case m.frozen != nil:
			return fmt.Errorf("segment: seal: %w", m.sealErr)
		default:
			m.freezeLocked()
		}
	}
	return nil
}

// freezeLocked makes the memtable the frozen one under a segment ID
// reserved now — so no compaction commit can take it — swaps in a
// fresh memtable, publishes the view over both and starts the seal.
// There must be no frozen memtable yet.
func (m *Manager) freezeLocked() {
	m.frozenID = m.nextSeg
	m.nextSeg++
	m.frozenAt = time.Now()
	fresh := newMemtable(m.nextDoc.Load(), m.mem.numTerms())
	m.mu.Lock()
	old := m.cur
	m.frozen, m.mem = m.mem, fresh
	m.cur = newView(old.segs, m.frozen, fresh, m.gen.Load())
	m.mu.Unlock()
	old.release()
	m.startSealLocked()
}

// startSealLocked starts the seal goroutine for the frozen memtable.
func (m *Manager) startSealLocked() {
	m.sealing = true
	mem, id, frozenAt := m.frozen, m.frozenID, m.frozenAt
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		m.sealFrozen(mem, id, frozenAt)
	}()
}

// retrySealLocked restarts a failed seal: the frozen memtable's or,
// when the failure came after the manifest commit, the tombstone save
// that commit did not finish.
func (m *Manager) retrySealLocked() {
	if m.frozen != nil {
		m.startSealLocked()
		return
	}
	m.sealErr = saveTombstones(m.dir, m.tomb.Load(), m.man.NextDoc)
	if m.sealErr != nil {
		m.sealErrors.Add(1)
	}
}

// Delete tombstones a document. Deleting sealed documents persists
// immediately; deleting a document of either memtable is recorded in
// memory only (it becomes durable when the document's seal commits,
// which saves the tombstones under the same lock as this).
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
// bytes: exact for sealed segments (on-disk list lengths, what the
// cache charges for them), estimated for the memtable portion.
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
	for _, mt := range v.mems() {
		if mt == nil {
			continue
		}
		if part := mt.postings(term); part != nil {
			enc += memEncodedEstimate(part)
			if err := concatLive(out, part, drop); err != nil {
				return nil, 0, err
			}
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
// each memtable's tail (frozen, then live) as one more exact
// pseudo-block.
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
	for _, mt := range v.mems() {
		if mt == nil {
			continue
		}
		if part := mt.postings(term); part != nil {
			tb.Lists = append(tb.Lists, store.BlockListFromList(part))
		}
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
	for _, mt := range v.mems() {
		if mt != nil {
			all = mt.dictionary(all)
		}
	}
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

// Seal is a synchronous checkpoint: it returns once every document
// added before the call is in a committed segment. It waits for an
// in-flight seal, retries a failed one, then freezes and seals the
// memtable. A no-op when nothing is buffered.
func (m *Manager) Seal() error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		return store.ErrClosed
	}
	return m.sealAllLocked()
}

// WaitSeal waits for an in-flight seal to end and reports its failure,
// if it failed and has not been retried since.
func (m *Manager) WaitSeal() error {
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	for m.sealing {
		m.sealDone.Wait()
	}
	return m.sealErr
}

// sealAllLocked is Seal's loop; it waits with writeMu released, so
// writers may add (and freeze) meanwhile. It retries a failure once and
// reports a second.
func (m *Manager) sealAllLocked() error {
	target := m.nextDoc.Load()
	retried := false
	for {
		switch {
		case m.cur == nil: // Close finished while this Seal waited
			return store.ErrClosed
		case m.sealing:
			m.sealDone.Wait()
		case m.sealErr != nil:
			if retried {
				return fmt.Errorf("segment: seal: %w", m.sealErr)
			}
			retried = true
			m.retrySealLocked()
		case m.man.NextDoc >= target:
			return nil
		default:
			m.freezeLocked()
		}
	}
}

func segFileName(id uint64) string  { return fmt.Sprintf("seg-%06d.post", id) }
func dictFileName(id uint64) string { return fmt.Sprintf("seg-%06d.dict", id) }

// sealFrozen is the seal goroutine: it encodes the frozen memtable and
// writes its segment files with no lock held, then commits under
// writeMu. Queries keep running throughout — they read the frozen
// memtable until the commit's view swap replaces it with the segment.
func (m *Manager) sealFrozen(mem *memtable, id uint64, frozenAt time.Time) {
	tr := m.opTrace("seal")
	seg, err := m.writeSegment(tr, mem, id)
	m.writeMu.Lock()
	if err == nil {
		err = m.commitSealLocked(tr, seg)
	}
	m.sealing = false
	m.sealErr = err
	if err != nil {
		m.sealErrors.Add(1)
	}
	took := time.Since(frozenAt)
	m.sealDone.Broadcast()
	m.writeMu.Unlock()
	if fn := m.sealObserver.Load(); fn != nil && err == nil {
		(*fn)(took)
	}
	m.finishOp(tr, err)
}

// writeSegment encodes mem and writes it as segment id, returning the
// opened segment.
func (m *Manager) writeSegment(tr *telemetry.RequestTrace, mem *memtable, id uint64) (*segment, error) {
	docs := mem.numDocs()
	meta := SegmentMeta{
		ID:       id,
		File:     segFileName(id),
		Dict:     dictFileName(id),
		FirstDoc: mem.firstDoc,
		LastDoc:  mem.firstDoc + docs - 1,
		Docs:     docs,
	}
	tr.SetAttr("segment", id)
	tr.SetAttr("docs", meta.Docs)
	if m.sealHook != nil {
		if err := m.sealHook(); err != nil {
			return nil, err
		}
	}
	esp := tr.StartSpan(telemetry.ReqStageEncode)
	data, dict, lists, err := mem.seal(m.sel, meta.LastDoc)
	if err != nil {
		esp.End()
		return nil, err
	}
	esp.AddBytes(int64(len(data)))
	esp.AddItems(int64(lists))
	esp.End()
	meta.Lists = lists
	meta.Bytes = int64(len(data))
	wsp := tr.StartSpan(telemetry.ReqStageWrite)
	defer wsp.End()
	wsp.AddBytes(int64(len(data)))
	if err := writeFileAtomic(filepath.Join(m.dir, meta.File), data); err != nil {
		return nil, err
	}
	if err := writeDictFile(m.dir, meta.Dict, dict); err != nil {
		os.Remove(filepath.Join(m.dir, meta.File))
		return nil, err
	}
	seg, err := openSegment(m.dir, meta, &m.reads)
	if err != nil {
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return nil, err
	}
	return seg, nil
}

// commitSealLocked commits a written segment of the frozen memtable:
// the manifest naming it (the commit point), the view without the
// frozen memtable, then the tombstones over the new frontier — which
// carry every delete of its documents so far, since deletes take
// writeMu too. A failure before the manifest is saved leaves the
// frozen memtable in place; one after it leaves only the tombstone
// save to retry.
func (m *Manager) commitSealLocked(tr *telemetry.RequestTrace, seg *segment) error {
	csp := tr.StartSpan(telemetry.ReqStageCommit)
	defer csp.End()
	meta := seg.meta
	newMan := &Manifest{
		Version:  manifestVersion,
		NextDoc:  meta.LastDoc + 1,
		NextSeg:  m.nextSeg,
		Purged:   m.man.Purged,
		Segments: append(append([]SegmentMeta(nil), m.man.Segments...), meta),
	}
	if err := newMan.save(m.dir); err != nil {
		seg.run.Close()
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return err
	}
	gen := m.gen.Add(1)
	m.mu.Lock()
	old := m.cur
	m.man = newMan
	m.frozen = nil
	segs := append(append([]*segment(nil), old.segs...), seg)
	m.cur = newView(segs, nil, old.mem, gen)
	m.mu.Unlock()
	old.release()
	m.seals.Add(1)
	// Manifest first, then tombstones: a crash between the two loses
	// recent deletions, never resurrects stale ones (see Open).
	if err := saveTombstones(m.dir, m.tomb.Load(), newMan.NextDoc); err != nil {
		return err
	}
	if m.opts.CompactAt > 0 && len(segs) >= m.opts.CompactAt {
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
		SealWait:    time.Duration(m.sealWait.Load()),
		Seals:       m.seals.Load(),
		SealErrors:  m.sealErrors.Load(),
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
	st.MemtableTerms = v.mem.numTerms()
	st.MemtableTokens = v.mem.numTokens()
	if v.frozen != nil {
		st.Sealing = v.frozen.numDocs()
	}
	return st
}

// Close seals every buffered document — the frozen memtable's, retried
// if its seal failed, and the memtable's — waits for background work,
// and releases every segment. Idempotent.
func (m *Manager) Close() error {
	m.writeMu.Lock()
	if m.closed.Swap(true) {
		m.writeMu.Unlock()
		return nil
	}
	m.cancel()
	err := m.sealAllLocked()
	m.mu.Lock()
	v := m.cur
	m.cur = nil
	m.mu.Unlock()
	m.writeMu.Unlock()
	m.bg.Wait()
	if v != nil {
		v.release()
	}
	return err
}
