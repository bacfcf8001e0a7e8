package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
)

// RunFile is the lazy, handle-based reader of one run-format file — a
// build-time run, merged.post, or a sealed live segment, which all
// share the format. The header and mapping table are parsed and the
// whole-file CRC verified at open; the compressed blob stays on disk
// and each list is fetched with one positioned read, which is what
// bounds reader memory. It is the only run-format parser and the only
// place a list is read and decoded for a query. Safe for concurrent
// use.
type RunFile struct {
	name     string // file name, for error messages
	id       uint64 // per-open identity, the file part of a cache key
	src      runSource
	crc      uint32 // header checksum of table + blob, verified at open
	firstDoc uint32
	lastDoc  uint32
	entries  []RunEntry
	blobOff  int64
	lookup   map[uint64]int // (coll<<32|slot) -> entry index

	path *ReadPath
}

// fileIDs hands out RunFile identities, one per open. It is global so
// that IDs stay unique across every ReadPath one cache is installed on.
var fileIDs atomic.Uint64

// ReadPath is what every RunFile opened with it shares with its owner
// (an IndexReader over its runs and merged file, a segment manager
// over its segments): the counters of what their read methods fetched
// from disk, and the decoded-list cache those methods read through,
// when one is installed.
type ReadPath struct {
	listBytes atomic.Uint64
	byCodec   [encoding.NumCodecs]atomic.Uint64
	cache     atomic.Pointer[ListCache]
}

// SetCache installs c as the cache of every file on this path, those
// already open included; nil leaves them uncached.
func (p *ReadPath) SetCache(c *ListCache) { p.cache.Store(c) }

// ListBytes reports the compressed list bytes fetched.
func (p *ReadPath) ListBytes() uint64 { return p.listBytes.Load() }

// ListsByCodec reports the lists fetched, by the name of the codec
// that encoded them. A list counts once per fetch, whether it was then
// decoded whole or handed out as undecoded blocks.
func (p *ReadPath) ListsByCodec() map[string]uint64 {
	out := make(map[string]uint64, len(p.byCodec))
	for _, codec := range encoding.Codecs() {
		out[codec.Name()] = p.byCodec[codec.ID()].Load()
	}
	return out
}

// OpenRunFile opens path, parses the header and table, verifies the
// whole-file CRC with one streaming pass (bounded memory — nothing is
// retained), and leaves the handle open for per-list positioned reads.
// Reads are counted, and cached, on rp; nil counts them privately and
// caches nothing. Every structural failure wraps ErrCorruptIndex.
func OpenRunFile(path string, rp *ReadPath) (*RunFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := parseRunFile(st.Name(), f, st.Size(), rp)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// runSource is what a RunFile reads: an *os.File in production,
// in-memory bytes under test and fuzz.
type runSource interface {
	io.ReaderAt
	io.Closer
}

// parseRunFile parses and verifies the size bytes of f as a run file.
// It takes ownership of f only on success.
func parseRunFile(name string, f runSource, size int64, rp *ReadPath) (*RunFile, error) {
	if rp == nil {
		rp = &ReadPath{}
	}
	if size < runHdrSize {
		return nil, ErrCorruptRun
	}
	var hdr [runHdrSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short header read", ErrCorruptRun)
	}
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(hdr[off:]) }
	if get32(0) != runMagic {
		return nil, ErrCorruptRun
	}
	if ver := get32(4); ver != runVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorruptRun, ver, runVersion)
	}
	n := int(get32(8))
	// The count is untrusted: bound it by the bytes available for the
	// table before allocating anything proportional to it. The division
	// form cannot overflow no matter what the header claims.
	if n < 0 || n > int((size-runHdrSize)/entrySize) {
		return nil, ErrCorruptRun
	}
	table := make([]byte, n*entrySize)
	if _, err := f.ReadAt(table, runHdrSize); err != nil {
		return nil, fmt.Errorf("%w: short table read", ErrCorruptRun)
	}
	// One streaming pass verifies the table+blob checksum without
	// holding the blob: a bit flip anywhere past the header is caught
	// here.
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, io.NewSectionReader(f, runHdrSize, size-runHdrSize)); err != nil {
		return nil, fmt.Errorf("%w: crc stream: %v", ErrCorruptRun, err)
	}
	if crc.Sum32() != get32(20) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptRun)
	}
	r := &RunFile{
		name:     name,
		id:       fileIDs.Add(1),
		src:      f,
		crc:      get32(20),
		firstDoc: get32(12),
		lastDoc:  get32(16),
		entries:  make([]RunEntry, n),
		blobOff:  int64(runHdrSize + n*entrySize),
		lookup:   make(map[uint64]int, n),
		path:     rp,
	}
	blobLen := uint64(size - r.blobOff)
	for i := 0; i < n; i++ {
		off := i * entrySize
		e := RunEntry{
			Collection: binary.LittleEndian.Uint32(table[off:]),
			Slot:       binary.LittleEndian.Uint32(table[off+4:]),
			Offset:     binary.LittleEndian.Uint64(table[off+8:]),
			Length:     binary.LittleEndian.Uint32(table[off+16:]),
			Count:      binary.LittleEndian.Uint32(table[off+20:]),
			Flags:      binary.LittleEndian.Uint32(table[off+24:]),
		}
		if e.Offset+uint64(e.Length) > blobLen || e.Offset+uint64(e.Length) < e.Offset {
			return nil, ErrCorruptRun
		}
		if err := checkEntryCodec(e); err != nil {
			return nil, err
		}
		r.entries[i] = e
		r.lookup[uint64(e.Collection)<<32|uint64(e.Slot)] = i
	}
	// One list per (collection, slot): Find could only ever reach one of
	// two, and a merge would lose the other.
	if len(r.lookup) != n {
		return nil, fmt.Errorf("%w: a (collection, slot) appears twice", ErrCorruptRun)
	}
	return r, nil
}

// DocRange returns the [first, last] document range the file covers.
func (r *RunFile) DocRange() (first, last uint32) { return r.firstDoc, r.lastDoc }

// NumLists reports the number of postings lists in the file.
func (r *RunFile) NumLists() int { return len(r.entries) }

// Entries exposes the parsed table. Callers must not mutate it.
func (r *RunFile) Entries() []RunEntry { return r.entries }

// Find locates the entry for (collection, slot).
func (r *RunFile) Find(coll, slot uint32) (RunEntry, bool) {
	i, ok := r.lookup[uint64(coll)<<32|uint64(slot)]
	if !ok {
		return RunEntry{}, false
	}
	return r.entries[i], true
}

// Close releases the file handle.
func (r *RunFile) Close() error { return r.src.Close() }

// readAt fills buf from blob offset off with one positioned read,
// which makes it safe to call concurrently with distinct buffers.
// Failures are classified: a read against a closed file surfaces
// ErrClosed, truncation mid-file is corruption, anything else passes
// through with the file name attached.
func (r *RunFile) readAt(off uint64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	_, err := r.src.ReadAt(buf, r.blobOff+int64(off))
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrClosed):
		return ErrClosed
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("store: %s: truncated read: %w", r.name, ErrCorruptIndex)
	default:
		return fmt.Errorf("store: %s: %w", r.name, err)
	}
}

// readBlob fetches one entry's compressed bytes for a query: the
// pread span, the bytes-read counter and the per-codec list counter
// all live here and nowhere else.
func (r *RunFile) readBlob(tr *telemetry.RequestTrace, e RunEntry) ([]byte, error) {
	psp := tr.StartSpan(telemetry.ReqStagePread)
	blob := make([]byte, e.Length)
	err := r.readAt(e.Offset, blob)
	psp.AddBytes(int64(e.Length))
	psp.End()
	if err != nil {
		return nil, err
	}
	r.path.listBytes.Add(uint64(e.Length))
	if id := e.Codec(); id < encoding.NumCodecs {
		r.path.byCodec[id].Add(1)
	}
	return blob, nil
}

// ReadListCtx fetches and decodes one entry's whole postings list: one
// positioned read plus one decode, or neither when the cache installed
// on the file's ReadPath holds it. A telemetry.RequestTrace carried by
// ctx sees the cache probe (noted hit or miss), pread and decode as
// leaf spans; untraced contexts take the same path with inert span
// handles. Returned lists may be shared and must not be mutated.
func (r *RunFile) ReadListCtx(ctx context.Context, e RunEntry) (*postings.List, error) {
	tr := telemetry.TraceFrom(ctx)
	key := listKey{file: r.id, coll: e.Collection, slot: e.Slot}
	c := r.path.cache.Load()
	if c != nil {
		csp := tr.StartSpan(telemetry.ReqStageCache)
		l, ok := c.get(key)
		if ok {
			csp.SetNote("hit")
			csp.End()
			return l, nil
		}
		csp.SetNote("miss")
		csp.End()
	}
	blob, err := r.readBlob(tr, e)
	if err != nil {
		return nil, err
	}
	dsp := tr.StartSpan(telemetry.ReqStageDecode)
	l, err := decodeEntry(blob, e)
	if tr != nil {
		if codec, cerr := encoding.Lookup(e.Codec()); cerr == nil {
			dsp.SetNote(codec.Name())
		}
	}
	dsp.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if c != nil {
		c.put(key, l, int64(e.Length))
	}
	return l, nil
}

// BlocksCtx returns one entry's block-at-a-time view, the cursor feed
// of the ranked path: for a blocked entry, one positioned read and the
// parsed skip table with the per-block codec bodies left undecoded;
// for any other entry, the whole list (ReadListCtx) as one exact
// pseudo-block, so the availability of block evaluation never depends
// on one list's length. An entry with no postings returns nil.
func (r *RunFile) BlocksCtx(ctx context.Context, e RunEntry) (*BlockList, error) {
	if e.Flags&FlagBlocks == 0 {
		l, err := r.ReadListCtx(ctx, e)
		if err != nil {
			return nil, err
		}
		return BlockListFromList(l), nil
	}
	blob, err := r.readBlob(telemetry.TraceFrom(ctx), e)
	if err != nil {
		return nil, err
	}
	bl, err := parseBlockedBlob(blob, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	return bl, nil
}

// decodeEntry decodes one entry's blob bytes into a postings list,
// dispatching on the codec ID carried in the entry flags. Blocked
// entries are decoded block by block and concatenated — the shape
// whole-list readers expect; the ranked path uses BlocksCtx to avoid
// exactly this cost.
func decodeEntry(blob []byte, e RunEntry) (*postings.List, error) {
	if e.Flags&FlagBlocks != 0 {
		return decodeBlockedEntry(blob, e)
	}
	codec, err := encoding.Lookup(e.Codec())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptRun, err)
	}
	var l postings.List
	l.DocIDs, l.TFs, l.Positions, err = codec.Decode(blob, int(e.Count), e.Flags&FlagPositional != 0)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &l, nil
}
