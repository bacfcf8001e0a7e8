// Package segment implements incremental LSM-style indexing on top of
// the batch pipeline's building blocks: documents stream through the
// batch parser into an in-memory write segment (the memtable — one
// hash table from term to appendable postings list), which a
// background goroutine seals into immutable on-disk segments in the
// run-file format, which background compaction folds together with the
// store package's sharded parallel merge. Deletions are tombstone bits
// filtered at read time and purged at compaction. Readers work against
// generation-stamped immutable views, so queries never block on a seal
// or a compaction — they finish against the view they started with
// while writers swap in the next one.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"

	"fastinvert/internal/store"
)

// Tombstone file layout (tombstones.bin, little-endian):
//
//	magic   u32  "FITS"
//	version u32
//	numDocs u32  documents covered (== manifest NextDoc at write time)
//	deleted u32  set bits in the payload
//	crc32   u32  IEEE CRC of the payload
//	payload      ceil(numDocs/8) bytes, bit d = doc d deleted
//
// The file covers only sealed documents. Tombstones over memtable
// documents live purely in memory: the documents they suppress are
// themselves lost on crash, so persisting the marks without the data
// would leave dangling deletes for docIDs that get re-assigned.
const (
	tombFileName = "tombstones.bin"
	tombMagic    = 0x53544946 // "FITS" little-endian
	tombVersion  = 1
	tombHdrSize  = 20
)

// bitmap is an immutable tombstone snapshot. Bit doc set means the
// document is deleted. Mutation is copy-on-write (withDoc, without):
// queries load the current pointer once and filter against a frozen
// state, with no locking on the read path.
type bitmap struct {
	bits    []uint64
	numDocs uint32 // universe size: docs 0..numDocs-1 are representable
	deleted uint32
}

func (b *bitmap) has(doc uint32) bool {
	if b == nil || doc >= b.numDocs {
		return false
	}
	w := int(doc >> 6)
	if w >= len(b.bits) {
		return false
	}
	return b.bits[w]>>(doc&63)&1 != 0
}

// withDoc returns a copy covering numDocs documents with doc marked
// deleted. Returns the receiver unchanged if the bit is already set.
func (b *bitmap) withDoc(doc, numDocs uint32) *bitmap {
	if b.has(doc) {
		return b
	}
	nb := &bitmap{
		bits:    make([]uint64, (int(numDocs)+63)/64),
		numDocs: numDocs,
	}
	if b != nil {
		copy(nb.bits, b.bits)
		nb.deleted = b.deleted
	}
	nb.bits[doc>>6] |= 1 << (doc & 63)
	nb.deleted++
	return nb
}

// without returns a copy with every bit cleared that is set in purged
// and falls inside [first, last] — the bits a compaction just turned
// into physically absent postings.
func (b *bitmap) without(purged *bitmap, first, last uint32) *bitmap {
	nb := &bitmap{
		bits:    make([]uint64, len(b.bits)),
		numDocs: b.numDocs,
		deleted: b.deleted,
	}
	copy(nb.bits, b.bits)
	for d := first; d <= last && d < purged.numDocs; d++ {
		if purged.has(d) && nb.has(d) {
			nb.bits[d>>6] &^= 1 << (d & 63)
			nb.deleted--
		}
		if d == ^uint32(0) {
			break
		}
	}
	return nb
}

// grown returns a bitmap covering at least n docs, preserving every
// bit; returns the receiver when it already covers n.
func (b *bitmap) grown(n uint32) *bitmap {
	if b != nil && b.numDocs >= n {
		return b
	}
	nb := &bitmap{bits: make([]uint64, (int(n)+63)/64), numDocs: n}
	if b != nil {
		copy(nb.bits, b.bits)
		nb.deleted = b.deleted
	}
	return nb
}

// countPrefix reports the set bits among docs [0, n).
func (b *bitmap) countPrefix(n uint32) uint32 {
	if b == nil {
		return 0
	}
	if n > b.numDocs {
		n = b.numDocs
	}
	var c uint32
	full := int(n >> 6)
	for w := 0; w < full && w < len(b.bits); w++ {
		c += uint32(bits.OnesCount64(b.bits[w]))
	}
	if rem := n & 63; rem != 0 && full < len(b.bits) {
		c += uint32(bits.OnesCount64(b.bits[full] & (1<<rem - 1)))
	}
	return c
}

// marshalTombstones serializes the first n docs of the bitmap.
func marshalTombstones(b *bitmap, n uint32) []byte {
	payload := make([]byte, (int(n)+7)/8)
	for d := uint32(0); d < n; d++ {
		if b.has(d) {
			payload[d>>3] |= 1 << (d & 7)
		}
	}
	out := make([]byte, tombHdrSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], tombMagic)
	binary.LittleEndian.PutUint32(out[4:], tombVersion)
	binary.LittleEndian.PutUint32(out[8:], n)
	binary.LittleEndian.PutUint32(out[12:], b.countPrefix(n))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[tombHdrSize:], payload)
	return out
}

// parseTombstones validates and decodes a tombstone file. Corruption
// yields an error wrapping store.ErrCorruptIndex, never a panic; every
// count is checked against the actual byte size before any
// size-proportional allocation (the payload length check is against
// bytes already in hand, and the word slice is bounded by it).
func parseTombstones(data []byte) (*bitmap, error) {
	if len(data) < tombHdrSize {
		return nil, fmt.Errorf("tombstones: %d bytes, need %d header: %w",
			len(data), tombHdrSize, store.ErrCorruptIndex)
	}
	if m := binary.LittleEndian.Uint32(data); m != tombMagic {
		return nil, fmt.Errorf("tombstones: bad magic %#x: %w", m, store.ErrCorruptIndex)
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != tombVersion {
		return nil, fmt.Errorf("tombstones: unsupported version %d: %w", v, store.ErrCorruptIndex)
	}
	numDocs := binary.LittleEndian.Uint32(data[8:])
	deleted := binary.LittleEndian.Uint32(data[12:])
	crc := binary.LittleEndian.Uint32(data[16:])
	payload := data[tombHdrSize:]
	if want := (int64(numDocs) + 7) / 8; int64(len(payload)) != want {
		return nil, fmt.Errorf("tombstones: %d payload bytes for %d docs, want %d: %w",
			len(payload), numDocs, want, store.ErrCorruptIndex)
	}
	if deleted > numDocs {
		return nil, fmt.Errorf("tombstones: %d deleted of %d docs: %w",
			deleted, numDocs, store.ErrCorruptIndex)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("tombstones: payload CRC %#x, header says %#x: %w",
			got, crc, store.ErrCorruptIndex)
	}
	b := &bitmap{
		bits:    make([]uint64, (int(numDocs)+63)/64),
		numDocs: numDocs,
		deleted: deleted,
	}
	var count uint32
	for i, by := range payload {
		count += uint32(bits.OnesCount8(by))
		b.bits[i>>3] |= uint64(by) << (8 * (i & 7))
	}
	if count != deleted {
		return nil, fmt.Errorf("tombstones: %d bits set, header says %d: %w",
			count, deleted, store.ErrCorruptIndex)
	}
	// Trailing bits past numDocs in the final byte must be zero, or
	// has() and countPrefix would disagree about the same file.
	if rem := numDocs & 7; rem != 0 {
		if payload[len(payload)-1]>>rem != 0 {
			return nil, fmt.Errorf("tombstones: set bits beyond doc %d: %w",
				numDocs-1, store.ErrCorruptIndex)
		}
	}
	return b, nil
}

// loadTombstones reads dir's tombstone file; a missing file is an
// empty bitmap (nothing deleted), anything else must parse cleanly.
func loadTombstones(dir string) (*bitmap, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tombFileName))
	if os.IsNotExist(err) {
		return &bitmap{}, nil
	}
	if err != nil {
		return nil, err
	}
	return parseTombstones(raw)
}

// saveTombstones atomically persists the sealed-doc prefix [0, n) of
// the bitmap.
func saveTombstones(dir string, b *bitmap, n uint32) error {
	return writeFileAtomic(filepath.Join(dir, tombFileName), marshalTombstones(b, n))
}

// writeFileAtomic writes data via temp file + fsync + rename so a
// crash leaves either the old content or the new, never a torn file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
