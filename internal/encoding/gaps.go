package encoding

import (
	"errors"
	"fmt"
)

// ErrNotSorted reports a docID sequence that is not strictly increasing,
// which the gap transform requires.
var ErrNotSorted = errors.New("encoding: docIDs not strictly increasing")

// Gaps converts a strictly increasing docID sequence into first-value +
// successive differences, in place, and returns it. The first element
// is kept absolute; each later element becomes ids[i] - ids[i-1].
func Gaps(ids []uint64) ([]uint64, error) {
	prev := uint64(0)
	for i, id := range ids {
		if i > 0 && id <= prev {
			return nil, ErrNotSorted
		}
		ids[i] = id - prev
		prev = id
	}
	return ids, nil
}

// Ungaps reverses Gaps in place and returns the absolute sequence.
func Ungaps(gaps []uint64) []uint64 {
	var acc uint64
	for i, g := range gaps {
		acc += g
		gaps[i] = acc
	}
	return gaps
}

// EncodePostings compresses a postings list of parallel docIDs and term
// frequencies: docIDs are gap-transformed and each (gap, tf) pair is
// variable-byte coded, the paper's output format. The input slices are
// not modified.
func EncodePostings(dst []byte, docIDs, tfs []uint32) ([]byte, error) {
	if len(docIDs) != len(tfs) {
		return nil, errors.New("encoding: docID/tf length mismatch")
	}
	prev := uint32(0)
	for i, id := range docIDs {
		if i > 0 && id <= prev {
			return nil, ErrNotSorted
		}
		dst = PutUvarByte(dst, uint64(id-prev))
		dst = PutUvarByte(dst, uint64(tfs[i]))
		prev = id
	}
	return dst, nil
}

// EncodePositionalPostings compresses a positional postings list: per
// posting the docID gap, the term frequency, then the tf in-document
// position gaps (first position absolute), all variable-byte coded.
func EncodePositionalPostings(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if len(docIDs) != len(tfs) || len(docIDs) != len(positions) {
		return nil, errors.New("encoding: positional list length mismatch")
	}
	prev := uint32(0)
	for i, id := range docIDs {
		if i > 0 && id <= prev {
			return nil, ErrNotSorted
		}
		if int(tfs[i]) != len(positions[i]) {
			return nil, fmt.Errorf("encoding: tf %d but %d positions", tfs[i], len(positions[i]))
		}
		dst = PutUvarByte(dst, uint64(id-prev))
		dst = PutUvarByte(dst, uint64(tfs[i]))
		prevPos := uint32(0)
		for j, p := range positions[i] {
			if j > 0 && p <= prevPos {
				return nil, fmt.Errorf("encoding: positions not ascending in doc %d", id)
			}
			dst = PutUvarByte(dst, uint64(p-prevPos))
			prevPos = p
		}
		prev = id
	}
	return dst, nil
}

// DecodePositionalPostings reverses EncodePositionalPostings.
func DecodePositionalPostings(src []byte, count int) (docIDs, tfs []uint32, positions [][]uint32, n int, err error) {
	if count < 0 || count > len(src)/2 {
		// Each posting needs at least a gap and a tf byte; reject
		// counts the input cannot possibly hold before allocating.
		return nil, nil, nil, 0, errors.New("encoding: positional count exceeds input")
	}
	docIDs, tfs, positions = allocPostings(count, true)
	if n, err = decodeVarByte(src, docIDs, tfs, positions); err != nil {
		return nil, nil, nil, 0, err
	}
	return docIDs, tfs, positions, n, nil
}

// DecodePostings reverses EncodePostings, reading exactly count
// postings and returning the bytes consumed.
func DecodePostings(src []byte, count int) (docIDs, tfs []uint32, n int, err error) {
	if count < 0 || count > len(src)/2 {
		return nil, nil, 0, errors.New("encoding: postings count exceeds input")
	}
	docIDs, tfs, _ = allocPostings(count, false)
	if n, err = decodeVarByte(src, docIDs, tfs, nil); err != nil {
		return nil, nil, 0, err
	}
	return docIDs, tfs, n, nil
}

// decodeVarByte is the varbyte format's one decode loop. It fills
// docIDs and tfs — equal lengths, the posting count — from src and
// returns the bytes consumed; a non-nil positions (same length) marks
// the positional layout and receives one allocated slice per posting.
// Every posting costs at least two bytes, so a count the input cannot
// hold ends in a truncation error without a guard of its own.
func decodeVarByte(src []byte, docIDs, tfs []uint32, positions [][]uint32) (n int, err error) {
	tfs = tfs[:len(docIDs)] // one length for the compiler, too
	var prev uint32
	for i := range docIDs {
		gap, m := uvarByteAt(src, n)
		if m <= 0 {
			return 0, errors.New("encoding: truncated postings gap")
		}
		n += m
		tf, m := uvarByteAt(src, n)
		if m <= 0 {
			return 0, errors.New("encoding: truncated postings tf")
		}
		n += m
		prev += uint32(gap)
		docIDs[i] = prev
		tfs[i] = uint32(tf)
		if positions != nil {
			if positions[i], m, err = decodeVarBytePositions(src[n:], tf); err != nil {
				return 0, err
			}
			n += m
		}
	}
	return n, nil
}

// uvarByteAt is UvarByte(src[n:]) with the one-byte value — most gaps
// and nearly all term frequencies — taken on a straight path ahead of
// UvarByte's loop; without it the shared loop decodes dense lists a
// tenth slower than the non-positional loop it replaced
// (BenchmarkCodecDecode).
func uvarByteAt(src []byte, n int) (v uint64, m int) {
	if n < len(src) && src[n] < 0x80 {
		return uint64(src[n]), 1
	}
	return UvarByte(src[n:])
}

// decodeVarBytePositions reads one posting's tf position gaps (first
// absolute) from the head of src and returns the bytes consumed. tf is
// untrusted: positions take at least one byte each, which bounds it by
// the input before anything is allocated.
func decodeVarBytePositions(src []byte, tf uint64) (ps []uint32, n int, err error) {
	if tf > uint64(len(src)) {
		return nil, 0, errors.New("encoding: tf exceeds remaining input")
	}
	ps = make([]uint32, tf)
	var cur uint32
	for j := range ps {
		pg, m := UvarByte(src[n:])
		if m <= 0 {
			return nil, 0, errors.New("encoding: truncated position")
		}
		n += m
		cur += uint32(pg)
		ps[j] = cur
	}
	return ps, n, nil
}
