// Package store implements the paper's output formats (§III.F): one
// postings file per run whose header is a mapping table locating each
// partial postings list, an auxiliary file mapping document-ID ranges
// to run files, a front-coded dictionary written once at the end, and
// the optional post-processing merge that combines partial lists into
// a monolithic postings file.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"fastinvert/internal/encoding"
)

// Run-file layout (little-endian):
//
//	magic  u32  "FRIN" (bytes 4e 49 52 46 on disk — a historic
//	            transposition of the intended 'FIRN'; the golden test
//	            pins these exact bytes, so the constant is the format)
//	ver    u32
//	nLists u32
//	first  u32  first global docID covered by this run
//	last   u32  last global docID covered
//	crc    u32  IEEE CRC-32 of table + blob
//	table  nLists x { coll u32, slot u32, off u64, len u32, count u32,
//	                  flags u32 }
//	blob   gap+varbyte-encoded postings (encoding.EncodePostings, or
//	       encoding.EncodePositionalPostings when FlagPositional)
const (
	runMagic   = 0x4652494e // "FRIN"
	runVersion = 3
	// runVersionCodec marks a run whose entries may carry a non-varbyte
	// codec ID in their flags. Files where every list is varbyte are
	// still written as version 3, byte-identical to pre-codec builds,
	// so old readers only fail (with ErrCorruptRun) on files they truly
	// cannot decode.
	runVersionCodec = 4
	// runVersionBlocks marks a run where some entries carry FlagBlocks:
	// their blobs hold a skip header plus independently decodable
	// fixed-size blocks (see blocks.go). Files without any blocked list
	// keep the version-3/4 decision, byte-identical to pre-block builds.
	runVersionBlocks = 5
	runHdrSize       = 24
	entrySize        = 28
)

// Entry flags. Bits 8-15 hold the list's encoding.CodecID; a zero
// codec field is varbyte, which is why version-3 files (no codec
// bits) parse identically through the registry.
const (
	// FlagPositional marks a list encoded with in-document positions.
	FlagPositional uint32 = 1 << 0

	// FlagBlocks marks a list stored in the blocked layout of
	// blocks.go: skip header + per-block codec bodies. Never combined
	// with FlagPositional, and only valid in version-5 files.
	FlagBlocks uint32 = 1 << 1

	codecShift        = 8
	codecMask  uint32 = 0xff << codecShift
)

// codecFlags returns the flag bits encoding the codec ID.
func codecFlags(id encoding.CodecID) uint32 { return uint32(id) << codecShift }

// EncodedFlags builds the entry flags for AddEncodedList: the codec ID
// in bits 8-15 plus FlagPositional when the blob carries positions.
func EncodedFlags(id encoding.CodecID, positional bool) uint32 {
	f := codecFlags(id)
	if positional {
		f |= FlagPositional
	}
	return f
}

// RunEntry locates one partial postings list inside a run file.
type RunEntry struct {
	Collection uint32
	Slot       uint32
	Offset     uint64
	Length     uint32
	Count      uint32
	Flags      uint32
}

// Codec extracts the entry's codec ID from its flags.
func (e RunEntry) Codec() encoding.CodecID {
	return encoding.CodecID((e.Flags & codecMask) >> codecShift)
}

// RunBuilder accumulates one run's partial postings lists.
type RunBuilder struct {
	entries   []RunEntry
	blob      []byte
	sel       encoding.Selector
	hasCodec  bool // any entry uses a non-varbyte codec -> version 4
	hasBlocks bool // any entry uses the blocked layout -> version 5
	blockMin  int  // blocking threshold; 0 disables blocking
}

// NewRunBuilder returns an empty builder writing the legacy varbyte
// format (version-3 files, byte-identical to pre-codec builds).
func NewRunBuilder() *RunBuilder { return &RunBuilder{} }

// NewRunBuilderCodec returns a builder that picks each list's codec
// with sel. The selector must be a pure function of its arguments so
// concurrent builders make identical choices. A nil sel behaves like
// NewRunBuilder.
func NewRunBuilderCodec(sel encoding.Selector) *RunBuilder {
	return &RunBuilder{sel: sel}
}

// EnableBlocks turns on the blocked layout for long non-positional
// lists (>= blockMinPostings postings): their blobs gain a per-block
// skip table with maxTF impact bounds, and the file is written as
// version 5. Sealed segments and merges enable this; the build
// pipeline's intermediate runs do not, keeping their bytes stable.
func (b *RunBuilder) EnableBlocks() { b.blockMin = blockMinPostings }

// addList is the shared append path: select a codec, encode, record
// the codec ID in the entry flags.
func (b *RunBuilder) addList(collection int, slot int32, docIDs, tfs []uint32, positions [][]uint32) error {
	n := len(docIDs)
	if n == 0 {
		return nil
	}
	codec := encoding.VarByteCodec
	if b.sel != nil {
		codec = b.sel(n, docIDs[0], docIDs[n-1], positions != nil)
	}
	off := uint64(len(b.blob))
	flags := codecFlags(codec.ID())
	var err error
	if blockable(b.blockMin, n, positions != nil) {
		b.blob, err = appendBlockedList(b.blob, codec, docIDs, tfs)
		flags |= FlagBlocks
		b.hasBlocks = true
	} else {
		b.blob, err = codec.Encode(b.blob, docIDs, tfs, positions)
	}
	if err != nil {
		return fmt.Errorf("store: list (%d,%d): %w", collection, slot, err)
	}
	if positions != nil {
		flags |= FlagPositional
	}
	if codec.ID() != encoding.CodecVarByte {
		b.hasCodec = true
	}
	b.entries = append(b.entries, RunEntry{
		Collection: uint32(collection),
		Slot:       uint32(slot),
		Offset:     off,
		Length:     uint32(uint64(len(b.blob)) - off),
		Count:      uint32(n),
		Flags:      flags,
	})
	return nil
}

// AddList appends one term's partial list (parallel docID/tf slices,
// strictly ascending docIDs). Empty lists are skipped.
func (b *RunBuilder) AddList(collection int, slot int32, docIDs, tfs []uint32) error {
	return b.addList(collection, slot, docIDs, tfs, nil)
}

// AddPositionalList appends one term's positional partial list.
func (b *RunBuilder) AddPositionalList(collection int, slot int32, docIDs, tfs []uint32, positions [][]uint32) error {
	if len(docIDs) > 0 && positions == nil {
		positions = make([][]uint32, len(docIDs))
	}
	return b.addList(collection, slot, docIDs, tfs, positions)
}

// AddEncodedList appends one term's partial list from an already
// codec-encoded blob, for producers that encode on their own substrate
// (the GPU indexer encodes device-side and ships bytes, not postings).
// flags carries the codec ID plus optionally FlagPositional; the
// blocked layout is seal/merge-only and is rejected here. The blob is
// validated against the codec's MinBytes floor — the same bound
// readers enforce — so a malformed producer fails at build time, not
// at query time.
func (b *RunBuilder) AddEncodedList(collection int, slot int32, count uint32, flags uint32, blob []byte) error {
	if count == 0 {
		return nil
	}
	if flags&FlagBlocks != 0 {
		return fmt.Errorf("store: encoded list (%d,%d): blocked layout is writer-internal", collection, slot)
	}
	if flags&^(FlagPositional|codecMask) != 0 {
		return fmt.Errorf("store: encoded list (%d,%d): unknown flag bits %#x", collection, slot, flags)
	}
	id := encoding.CodecID((flags & codecMask) >> codecShift)
	codec, err := encoding.Lookup(id)
	if err != nil {
		return fmt.Errorf("store: encoded list (%d,%d): %w", collection, slot, err)
	}
	if len(blob) < codec.MinBytes(int(count)) {
		return fmt.Errorf("store: encoded list (%d,%d): %d bytes below %s floor for %d postings",
			collection, slot, len(blob), codec.Name(), count)
	}
	if id != encoding.CodecVarByte {
		b.hasCodec = true
	}
	off := uint64(len(b.blob))
	b.blob = append(b.blob, blob...)
	b.entries = append(b.entries, RunEntry{
		Collection: uint32(collection),
		Slot:       uint32(slot),
		Offset:     off,
		Length:     uint32(len(blob)),
		Count:      count,
		Flags:      flags,
	})
	return nil
}

// Lists reports how many lists have been added.
func (b *RunBuilder) Lists() int { return len(b.entries) }

// Finalize serializes the run covering the global docID range
// [firstDoc, lastDoc].
func (b *RunBuilder) Finalize(firstDoc, lastDoc uint32) []byte {
	out := make([]byte, 0, runHdrSize+len(b.entries)*entrySize+len(b.blob))
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		out = append(out, u32[:]...)
	}
	ver := uint32(runVersion)
	if b.hasCodec {
		ver = runVersionCodec
	}
	if b.hasBlocks {
		ver = runVersionBlocks
	}
	put32(runMagic)
	put32(ver)
	put32(uint32(len(b.entries)))
	put32(firstDoc)
	put32(lastDoc)
	put32(0) // crc placeholder
	var u64 [8]byte
	for _, e := range b.entries {
		put32(e.Collection)
		put32(e.Slot)
		binary.LittleEndian.PutUint64(u64[:], e.Offset)
		out = append(out, u64[:]...)
		put32(e.Length)
		put32(e.Count)
		put32(e.Flags)
	}
	out = append(out, b.blob...)
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[runHdrSize:]))
	return out
}

// ErrCorruptRun reports a malformed run file. It wraps
// ErrCorruptIndex, so either sentinel matches via errors.Is.
var ErrCorruptRun = fmt.Errorf("corrupt run file: %w", ErrCorruptIndex)

// checkEntryCodec validates an untrusted entry's codec and layout
// bits for the given run version: version-3 entries must carry none,
// FlagBlocks is version-5-only (and never positional), the codec must
// be registered, and Count must fit the codec's guaranteed minimum
// bytes-per-posting before any decoder trusts it for allocation. The
// minimum holds for blocked blobs too: every registered codec's
// MinBytes is subadditive, so per-block bodies plus the skip header
// can only cost more than one whole-list encoding.
func checkEntryCodec(ver uint32, e RunEntry) error {
	if ver == runVersion && e.Flags&codecMask != 0 {
		return fmt.Errorf("%w: codec bits in version-3 entry", ErrCorruptRun)
	}
	if e.Flags&FlagBlocks != 0 {
		if ver != runVersionBlocks {
			return fmt.Errorf("%w: block flag in version-%d entry", ErrCorruptRun, ver)
		}
		if e.Flags&FlagPositional != 0 {
			return fmt.Errorf("%w: blocked positional entry", ErrCorruptRun)
		}
	}
	codec, err := encoding.Lookup(e.Codec())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorruptRun, err)
	}
	if e.Count > 0 && (e.Length == 0 || codec.MinBytes(int(e.Count)) > int(e.Length)) {
		return fmt.Errorf("%w: count exceeds list bytes", ErrCorruptRun)
	}
	return nil
}
