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
	"math"

	"fastinvert/internal/encoding"
)

// Run-file layout (little-endian), shared byte for byte by build-time
// runs, merged.post and sealed live segments:
//
//	magic  u32  "FRIN" (bytes 4e 49 52 46 on disk — a historic
//	            transposition of the intended 'FIRN'; the golden test
//	            pins these exact bytes, so the constant is the format)
//	ver    u32  runVersion; any other value is rejected (ErrCorruptRun)
//	nLists u32
//	first  u32  first global docID covered by this run
//	last   u32  last global docID covered
//	crc    u32  IEEE CRC-32 of every byte after it: avgRef + table + blob
//	avgRef f64  bits of the average document length the blocked lists'
//	            impacts were computed against, 0 when none were
//	table  nLists x { coll u32, slot u32, off u64, len u32, count u32,
//	                  flags u32 }
//	blob   per list, the entry codec's encoding of its postings (with
//	       positions when FlagPositional), or the blocked layout of
//	       blocks.go when FlagBlocks
const (
	runMagic   = 0x4652494e // "FRIN"
	runVersion = 6
	runHdrSize = 32
	entrySize  = 28

	// runCRCFrom is where the bytes the header CRC covers begin: right
	// after the crc field, so avgRef is checksummed with the table.
	runCRCFrom = 24
)

// Entry flags. Bits 8-15 hold the list's encoding.CodecID and are
// always valid; zero is varbyte.
const (
	// FlagPositional marks a list encoded with in-document positions.
	FlagPositional uint32 = 1 << 0

	// FlagBlocks marks a list stored in the blocked layout of
	// blocks.go: skip header + per-block codec bodies. Optional per
	// entry, never combined with FlagPositional.
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
	entries []RunEntry
	blob    []byte
	sel     encoding.Selector
	blk     blocking
}

// NewRunBuilder returns an empty builder that encodes every list with
// varbyte.
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
// skip table with maxTF and impact bounds. Sealed segments enable
// this, as every merge does; the build pipeline's intermediate runs do
// not, keeping their bytes stable.
func (b *RunBuilder) EnableBlocks() { b.blk.on = true }

// SetDocLens gives the builder the collection's document lengths:
// blocked lists added afterwards store BM25 impacts computed against
// them, and Finalize records their AvgDocLen as the file's avgRef.
// Without it impacts are written as 0.
func (b *RunBuilder) SetDocLens(lens []uint32) {
	b.blk.lens, b.blk.avg = lens, AvgDocLen(lens)
}

// appendList encodes one non-empty list onto dst the way every writer
// of the format does — sel picks the codec (nil means varbyte), and
// with bk on a long non-positional list takes the blocked layout, its
// impacts computed from bk's lengths — and returns the grown blob with
// the entry's flags. Every choice is a pure function of the list and
// the lengths, so output bytes never depend on which writer or how
// many workers produced them.
func appendList(dst []byte, sel encoding.Selector, bk *blocking, docIDs, tfs []uint32, positions [][]uint32) ([]byte, uint32, error) {
	n := len(docIDs)
	codec := encoding.VarByteCodec
	if sel != nil {
		codec = sel(n, docIDs[0], docIDs[n-1], positions != nil)
	}
	flags := codecFlags(codec.ID())
	var err error
	switch {
	case positions != nil:
		flags |= FlagPositional
		dst, err = codec.Encode(dst, docIDs, tfs, positions)
	case bk.on && n >= blockMinPostings:
		flags |= FlagBlocks
		dst, err = appendBlockedList(dst, codec, bk, docIDs, tfs)
	default:
		dst, err = codec.Encode(dst, docIDs, tfs, nil)
	}
	return dst, flags, err
}

// addList is the shared append path: encode, record the codec ID and
// layout in the entry flags.
func (b *RunBuilder) addList(collection int, slot int32, docIDs, tfs []uint32, positions [][]uint32) error {
	if len(docIDs) == 0 {
		return nil
	}
	off := uint64(len(b.blob))
	blob, flags, err := appendList(b.blob, b.sel, &b.blk, docIDs, tfs, positions)
	if err != nil {
		return fmt.Errorf("store: list (%d,%d): %w", collection, slot, err)
	}
	b.blob = blob
	b.entries = append(b.entries, RunEntry{
		Collection: uint32(collection),
		Slot:       uint32(slot),
		Offset:     off,
		Length:     uint32(uint64(len(b.blob)) - off),
		Count:      uint32(len(docIDs)),
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
	put32(runMagic)
	put32(runVersion)
	put32(uint32(len(b.entries)))
	put32(firstDoc)
	put32(lastDoc)
	put32(0) // crc placeholder
	var u64 [8]byte
	binary.LittleEndian.PutUint64(u64[:], math.Float64bits(b.blk.avg))
	out = append(out, u64[:]...)
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
	binary.LittleEndian.PutUint32(out[20:], crc32.ChecksumIEEE(out[runCRCFrom:]))
	return out
}

// ErrCorruptRun reports a malformed run file. It wraps
// ErrCorruptIndex, so either sentinel matches via errors.Is.
var ErrCorruptRun = fmt.Errorf("corrupt run file: %w", ErrCorruptIndex)

// checkEntryCodec validates an untrusted entry's codec and layout
// bits: FlagBlocks is never positional, the codec must be registered,
// and Count must fit the codec's guaranteed minimum bytes-per-posting
// before any decoder trusts it for allocation. The minimum holds for
// blocked blobs too: every registered codec's MinBytes is subadditive,
// so per-block bodies plus the skip header can only cost more than one
// whole-list encoding.
func checkEntryCodec(e RunEntry) error {
	if e.Flags&FlagBlocks != 0 && e.Flags&FlagPositional != 0 {
		return fmt.Errorf("%w: blocked positional entry", ErrCorruptRun)
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
