package encoding

import (
	"errors"
	"fmt"
)

// CodecID is the stable on-disk identifier of a postings codec. IDs are
// recorded per list in run-file entry tables, so they must never be
// renumbered.
type CodecID uint8

const (
	CodecVarByte   CodecID = 0 // gap + variable-byte, the paper's output format
	CodecGamma     CodecID = 1 // Elias gamma bitstream
	CodecGolomb    CodecID = 2 // Golomb/Rice with a per-list parameter header
	CodecBitPack   CodecID = 3 // fixed-width bit-packed 128-gap blocks
	CodecEliasFano CodecID = 4 // quasi-succinct Elias-Fano for sparse lists

	// NumCodecs bounds the registry; IDs at or past it are unknown.
	NumCodecs = 5
)

// ErrUnknownCodec reports a codec ID or name outside the registry.
var ErrUnknownCodec = errors.New("encoding: unknown codec")

// Codec encodes and decodes one postings list. Encode appends to dst
// and returns the extended slice; docIDs must be strictly increasing
// and parallel to tfs. positions is nil for non-positional lists;
// when non-nil it is parallel to docIDs with len(positions[i]) ==
// tfs[i] and strictly ascending in-document positions. Decode reverses
// Encode for exactly count postings, returning nil positions for
// positional == false. Every codec is self-contained: any parameters
// it needs (Golomb b, Elias-Fano universe) travel in its own header
// bytes, so a list decodes from (bytes, count, positional) alone.
//
// DecodeInto is Decode of a non-positional body into slices the caller
// owns: docIDs and tfs must have equal lengths, and that length is the
// posting count. It allocates nothing, writes nothing outside the two
// slices, and fails on exactly the inputs Decode(src, len(docIDs),
// false) fails on, leaving the slices' contents unspecified; on
// success they hold what Decode would have returned. Each codec keeps
// one decode loop, which DecodeInto runs directly and Decode runs
// after bounding count by the input and allocating.
type Codec interface {
	ID() CodecID
	Name() string
	Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error)
	Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error)
	DecodeInto(src []byte, docIDs, tfs []uint32) error

	// MinBytes is a lower bound on the encoded size of any valid
	// count-posting list. Readers check untrusted entry tables against
	// it before allocating anything proportional to the claimed count,
	// so it must never exceed a real encoding's size.
	MinBytes(count int) int
}

// codecs is the fixed registry, indexed by CodecID. There is no
// dynamic registration: the set of codecs is part of the on-disk
// format, and a new one means a new ID and a deliberate format bump.
var codecs = [NumCodecs]Codec{
	CodecVarByte:   VarByteCodec,
	CodecGamma:     GammaCodec,
	CodecGolomb:    GolombCodec,
	CodecBitPack:   BitPackCodec,
	CodecEliasFano: EliasFanoCodec,
}

// Lookup resolves a codec ID read from an entry table.
func Lookup(id CodecID) (Codec, error) {
	if int(id) >= len(codecs) {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownCodec, id)
	}
	return codecs[id], nil
}

// ByName resolves a codec by its registry name.
func ByName(name string) (Codec, error) {
	for _, c := range codecs {
		if c.Name() == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
}

// Codecs returns every registered codec in ID order.
func Codecs() []Codec {
	out := make([]Codec, len(codecs))
	copy(out, codecs[:])
	return out
}

// Selector picks the codec for one list from its shape: posting count,
// absolute first and last docIDs, and whether positions are carried.
// Selection MUST be a pure function of these arguments — the sharded
// merge relies on it to produce byte-identical output for any worker
// count.
type Selector func(n int, first, last uint32, positional bool) Codec

// AutoSelect is the default per-list self-tuning heuristic:
//
//   - Short lists (n < 32) stay varbyte: byte-aligned decode is fastest
//     and per-list codec headers would dominate the size.
//   - Dense lists (average docID gap <= 8 — the Zipf head, where almost
//     every document carries the term) bit-pack: gaps of 1-8 fit 1-3
//     bits per posting in fixed-width blocks.
//   - Everything else (the sparse tail) uses Elias-Fano, whose
//     ~2 + log2(universe/n) bits per docID tracks the information-
//     theoretic bound as lists get sparser.
func AutoSelect(n int, first, last uint32, positional bool) Codec {
	if n < 32 {
		return VarByteCodec
	}
	span := uint64(last-first) + 1
	if span/uint64(n) <= 8 {
		return BitPackCodec
	}
	return EliasFanoCodec
}

// ForceSelect returns a Selector that always picks c.
func ForceSelect(c Codec) Selector {
	return func(int, uint32, uint32, bool) Codec { return c }
}

// SelectorFor resolves a selection policy by name: "auto" is
// AutoSelect, any registry codec name forces that codec.
func SelectorFor(name string) (Selector, error) {
	if name == "auto" {
		return AutoSelect, nil
	}
	c, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return ForceSelect(c), nil
}

// checkList validates Encode's shared preconditions.
func checkList(docIDs, tfs []uint32, positions [][]uint32) error {
	if len(docIDs) != len(tfs) {
		return errors.New("encoding: docID/tf length mismatch")
	}
	if positions != nil && len(positions) != len(docIDs) {
		return errors.New("encoding: positional list length mismatch")
	}
	for i := 1; i < len(docIDs); i++ {
		if docIDs[i] <= docIDs[i-1] {
			return ErrNotSorted
		}
	}
	if positions != nil {
		for i, ps := range positions {
			if len(ps) != int(tfs[i]) {
				return fmt.Errorf("encoding: tf %d but %d positions", tfs[i], len(ps))
			}
			for j := 1; j < len(ps); j++ {
				if ps[j] <= ps[j-1] {
					return fmt.Errorf("encoding: positions not ascending in doc %d", docIDs[i])
				}
			}
		}
	}
	return nil
}
