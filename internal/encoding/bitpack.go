package encoding

import (
	"errors"
	"math/bits"
)

// Bit-packed fixed-width blocks (PForDelta's frame-of-reference core,
// without exceptions): docID gaps and term frequencies are split into
// blocks of up to 128 values, and each block stores one width byte w
// followed by its values packed w bits each, little-endian within a
// uint64 accumulator. Dense Zipf-head lists, whose gaps are almost all
// 1-8, pack at 1-3 bits per docID; the accumulator moves whole bytes
// per iteration, building on the byte-at-a-time fast paths the aligned
// BitWriter uses.
//
// Wire format:
//
//	varbyte(docIDs[0])                             first docID, absolute
//	ceil((n-1)/128) gap blocks over gaps[1..n-1]   each: w byte + packed
//	ceil(n/128)     tf  blocks over tfs[0..n-1]
//	positional only: per posting, tf varbyte position gaps
//	                 (first position absolute)

// bitPackBlockLen is the fixed block size; the last block of a section
// is shorter when the value count is not a multiple.
const bitPackBlockLen = 128

type bitPackCodec struct{}

func (bitPackCodec) ID() CodecID  { return CodecBitPack }
func (bitPackCodec) Name() string { return "bitpack" }

// MinBytes: one byte for the absolute first docID, one width byte per
// block, and at least one bit per gap (gaps are >= 1, so w >= 1; tf
// blocks can legitimately pack at w = 0).
func (bitPackCodec) MinBytes(count int) int {
	if count <= 0 {
		return 0
	}
	gapBlocks := (count - 1 + bitPackBlockLen - 1) / bitPackBlockLen
	tfBlocks := (count + bitPackBlockLen - 1) / bitPackBlockLen
	return 1 + gapBlocks + (count-1+7)/8 + tfBlocks
}

func (bitPackCodec) Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if err := checkList(docIDs, tfs, positions); err != nil {
		return nil, err
	}
	n := len(docIDs)
	if n == 0 {
		return dst, nil
	}
	dst = PutUvarByte(dst, uint64(docIDs[0]))
	// Gap-transform into a scratch block so the input stays untouched.
	var block [bitPackBlockLen]uint32
	for lo := 1; lo < n; lo += bitPackBlockLen {
		hi := lo + bitPackBlockLen
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			block[i-lo] = docIDs[i] - docIDs[i-1]
		}
		dst = packBlock(dst, block[:hi-lo])
	}
	for lo := 0; lo < n; lo += bitPackBlockLen {
		hi := lo + bitPackBlockLen
		if hi > n {
			hi = n
		}
		dst = packBlock(dst, tfs[lo:hi])
	}
	if positions != nil {
		for _, ps := range positions {
			prev := uint32(0)
			for _, p := range ps {
				dst = PutUvarByte(dst, uint64(p-prev))
				prev = p
			}
		}
	}
	return dst, nil
}

func (c bitPackCodec) Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error) {
	if count < 0 || c.MinBytes(count) > len(src) {
		return nil, nil, nil, errBitPackCount
	}
	if count == 0 {
		return nil, nil, nil, nil
	}
	docIDs, tfs, positions = allocPostings(count, positional)
	if err := c.decode(src, docIDs, tfs, positions); err != nil {
		return nil, nil, nil, err
	}
	return docIDs, tfs, positions, nil
}

// DecodeInto repeats Decode's size check: a gap block may claim width
// 0, so the loop alone would accept bodies shorter than MinBytes.
func (c bitPackCodec) DecodeInto(src []byte, docIDs, tfs []uint32) error {
	if c.MinBytes(len(docIDs)) > len(src) {
		return errBitPackCount
	}
	return c.decode(src, docIDs, tfs, nil)
}

var errBitPackCount = errors.New("encoding: bitpack: count exceeds input")

// decode is the bitpack decode loop: gap blocks unpacked straight into
// docIDs and prefix-summed in place, then the tf blocks; non-nil
// positions marks the positional layout.
func (bitPackCodec) decode(src []byte, docIDs, tfs []uint32, positions [][]uint32) error {
	count := len(docIDs)
	if count == 0 {
		return nil
	}
	first, m := UvarByte(src)
	if m <= 0 {
		return errors.New("encoding: bitpack: truncated first docID")
	}
	pos := m
	docIDs[0] = uint32(first)
	for lo := 1; lo < count; lo += bitPackBlockLen {
		m, err := unpackBlock(src[pos:], docIDs[lo:min(lo+bitPackBlockLen, count)])
		if err != nil {
			return err
		}
		pos += m
	}
	for i := 1; i < count; i++ {
		docIDs[i] += docIDs[i-1]
	}
	for lo := 0; lo < count; lo += bitPackBlockLen {
		m, err := unpackBlock(src[pos:], tfs[lo:min(lo+bitPackBlockLen, count)])
		if err != nil {
			return err
		}
		pos += m
	}
	// Positions are the varbyte codec's: per posting, tf gaps.
	for i := range positions {
		ps, m, err := decodeVarBytePositions(src[pos:], uint64(tfs[i]))
		if err != nil {
			return err
		}
		positions[i] = ps
		pos += m
	}
	return nil
}

// packBlock appends one block: the max bit width of vals as a single
// byte, then every value packed at that width, LSB-first through a
// uint64 accumulator (at most one append per produced byte).
func packBlock(dst []byte, vals []uint32) []byte {
	var w uint
	for _, v := range vals {
		if l := uint(bits.Len32(v)); l > w {
			w = l
		}
	}
	dst = append(dst, byte(w))
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += w
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// unpackBlock reads one block produced by packBlock into out,
// returning the bytes consumed.
func unpackBlock(src []byte, out []uint32) (int, error) {
	if len(src) == 0 {
		return 0, errors.New("encoding: bitpack: missing block width")
	}
	w := uint(src[0])
	if w > 32 {
		return 0, errors.New("encoding: bitpack: block width exceeds 32")
	}
	need := 1 + (len(out)*int(w)+7)/8
	if need > len(src) {
		return 0, errors.New("encoding: bitpack: truncated block")
	}
	if w == 0 {
		clear(out)
		return 1, nil
	}
	mask := uint64(1)<<w - 1
	var acc uint64
	var nbits uint
	pos := 1
	for i := range out {
		for nbits < w {
			acc |= uint64(src[pos]) << nbits
			pos++
			nbits += 8
		}
		out[i] = uint32(acc & mask)
		acc >>= w
		nbits -= w
	}
	return need, nil
}
