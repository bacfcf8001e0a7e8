package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
)

// runReader is the lazy, handle-based view of one run file (or the
// merged file): the header and mapping table are parsed up front, the
// compressed blob stays on disk and individual lists are fetched with
// one positioned read each, which is what bounds reader memory. It is
// the only run-format parser.
type runReader struct {
	name     string // file name, for cache keys and error messages
	src      runSource
	size     int64
	crc      uint32 // header checksum of table + blob, verified at open
	firstDoc uint32
	lastDoc  uint32
	entries  []RunEntry
	blobOff  int64
	lookup   map[uint64]int // (coll<<32|slot) -> entry index
}

// openRunReader opens path, parses the header and table, verifies the
// whole-file CRC with one streaming pass (bounded memory — nothing is
// retained), and leaves the handle open for per-list positioned reads.
// Every structural failure wraps ErrCorruptIndex.
func openRunReader(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := parseRunReader(st.Name(), f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// runSource is what a runReader reads: an *os.File in production,
// in-memory bytes under test and fuzz.
type runSource interface {
	io.ReaderAt
	io.Closer
}

// parseRunReader parses and verifies the size bytes of f as a run
// file. It takes ownership of f only on success.
func parseRunReader(name string, f runSource, size int64) (*runReader, error) {
	if size < runHdrSize {
		return nil, ErrCorruptRun
	}
	var hdr [runHdrSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("%w: short header read", ErrCorruptRun)
	}
	get32 := func(off int) uint32 { return binary.LittleEndian.Uint32(hdr[off:]) }
	ver := get32(4)
	if get32(0) != runMagic || ver < runVersion || ver > runVersionBlocks {
		return nil, ErrCorruptRun
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
	r := &runReader{
		name:     name,
		src:      f,
		size:     size,
		crc:      get32(20),
		firstDoc: get32(12),
		lastDoc:  get32(16),
		entries:  make([]RunEntry, n),
		blobOff:  int64(runHdrSize + n*entrySize),
		lookup:   make(map[uint64]int, n),
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
		if err := checkEntryCodec(ver, e); err != nil {
			return nil, err
		}
		r.entries[i] = e
		r.lookup[uint64(e.Collection)<<32|uint64(e.Slot)] = i
	}
	return r, nil
}

// find locates the entry for (collection, slot).
func (r *runReader) find(coll uint32, slot uint32) (RunEntry, bool) {
	i, ok := r.lookup[uint64(coll)<<32|uint64(slot)]
	if !ok {
		return RunEntry{}, false
	}
	return r.entries[i], true
}

// readBlob fetches one entry's compressed bytes with a single
// positioned read.
func (r *runReader) readBlob(e RunEntry) ([]byte, error) {
	return r.readBlobInto(e, nil)
}

// readBlobInto is readBlob reusing buf's capacity when it suffices.
// Positioned reads make it safe to call concurrently with distinct
// buffers. The caller must be done with buf's previous contents.
func (r *runReader) readBlobInto(e RunEntry, buf []byte) ([]byte, error) {
	if e.Length == 0 {
		return nil, nil
	}
	if cap(buf) < int(e.Length) {
		buf = make([]byte, e.Length)
	}
	buf = buf[:e.Length]
	if _, err := r.src.ReadAt(buf, r.blobOff+int64(e.Offset)); err != nil {
		return nil, err
	}
	return buf, nil
}

// readBlobRange fills buf with raw blob bytes starting at blob offset
// off, for batched reads spanning several adjacent entries.
func (r *runReader) readBlobRange(off uint64, buf []byte) error {
	_, err := r.src.ReadAt(buf, r.blobOff+int64(off))
	return err
}

func (r *runReader) close() error { return r.src.Close() }

// decodeEntry decodes one entry's blob bytes into a postings list,
// dispatching on the codec ID carried in the entry flags. Blocked
// entries are decoded block by block and concatenated — the shape
// whole-list readers expect; the ranked path uses parseBlockedBlob
// directly to avoid exactly this cost.
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
