package encoding

import (
	"errors"
	"math/bits"
)

// Elias-Fano coding of the docID sequence (Pibiri & Venturini's survey
// is the reference): each absolute docID is split into l low bits,
// stored verbatim, and a high part whose successive deltas are unary
// coded. With l = floor(log2(u/n)) the docIDs cost at most
// 2 + ceil(log2(u/n)) bits each — within half a bit per element of the
// information-theoretic minimum for an n-subset of [0, u], which is
// what makes it the sparse-tail choice.
//
// Wire format:
//
//	varbyte(u)            u = last (largest) docID, absolute
//	then one bitstream, per posting i:
//	  unary(high_i - high_{i-1})   high_i = docIDs[i] >> l
//	  l low bits of docIDs[i]
//	  gamma(tf_i + 1)
//	  positional only: tf_i position gaps as gamma(posGap+1),
//	                   first position absolute
//
// l is recomputed at decode from (u, count), so the list is
// self-contained. Interleaving tf (and positions) keeps one sequential
// stream — the store decodes whole lists, never random-accesses into
// them, so the classical split high/low arrays would buy nothing here.
type eliasFanoCodec struct{}

func (eliasFanoCodec) ID() CodecID  { return CodecEliasFano }
func (eliasFanoCodec) Name() string { return "eliasfano" }

// MinBytes: the universe header byte plus >= 2 bits per posting (the
// unary terminator of the high delta and one tf bit; l may be 0).
func (eliasFanoCodec) MinBytes(count int) int { return 1 + (2*count+7)/8 }

// efLowBits derives the low-bit width from the universe and count —
// identical at encode and decode by construction.
func efLowBits(u uint64, n int) uint {
	if n <= 0 {
		return 0
	}
	q := (u + 1) / uint64(n)
	if q <= 1 {
		return 0
	}
	return uint(bits.Len64(q) - 1)
}

func (eliasFanoCodec) Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if err := checkList(docIDs, tfs, positions); err != nil {
		return nil, err
	}
	n := len(docIDs)
	if n == 0 {
		return dst, nil
	}
	u := uint64(docIDs[n-1])
	dst = PutUvarByte(dst, u)
	l := efLowBits(u, n)
	w := NewBitWriter(dst)
	prevHigh := uint64(0)
	for i, id := range docIDs {
		high := uint64(id) >> l
		w.WriteUnary(high - prevHigh)
		prevHigh = high
		if l > 0 {
			w.WriteBits(uint64(id), l)
		}
		PutGamma(w, uint64(tfs[i])+1)
		if positions != nil {
			writeGammaPositions(w, positions[i])
		}
	}
	return w.Bytes(), nil
}

func (c eliasFanoCodec) Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error) {
	if count == 0 {
		return nil, nil, nil, nil
	}
	// Bounds the allocation only (the header's bytes count as body):
	// decode runs out of bits on any count the body cannot hold.
	if err := checkBitCount(src, count); err != nil {
		return nil, nil, nil, err
	}
	docIDs, tfs, positions = allocPostings(count, positional)
	if err := c.decode(src, docIDs, tfs, positions); err != nil {
		return nil, nil, nil, err
	}
	return docIDs, tfs, positions, nil
}

func (c eliasFanoCodec) DecodeInto(src []byte, docIDs, tfs []uint32) error {
	return c.decode(src, docIDs, tfs, nil)
}

// decode is the Elias-Fano decode loop; non-nil positions marks the
// positional layout. Every posting costs at least two bits after the
// header, so a count the body cannot hold ends in a truncation error.
func (eliasFanoCodec) decode(src []byte, docIDs, tfs []uint32, positions [][]uint32) error {
	count := len(docIDs)
	if count == 0 {
		return nil
	}
	u, m := UvarByte(src)
	if m <= 0 {
		return errors.New("encoding: eliasfano: truncated universe")
	}
	src = src[m:]
	l := efLowBits(u, count)
	tfs = tfs[:len(docIDs)] // one length for the compiler, too
	r := NewBitReader(src)
	var high uint64
	for i := range docIDs {
		delta, ok := r.ReadUnary()
		if !ok {
			return errors.New("encoding: eliasfano: truncated high bits")
		}
		high += delta
		low, ok := r.ReadBits(l)
		if !ok {
			return errors.New("encoding: eliasfano: truncated low bits")
		}
		docIDs[i] = uint32(high<<l | low)
		tf, ok := Gamma(r)
		if !ok || tf == 0 {
			return errors.New("encoding: eliasfano: truncated tf")
		}
		tfs[i] = uint32(tf - 1)
		if positions != nil {
			ps, err := readGammaPositions(r, tf-1, len(src))
			if err != nil {
				return err
			}
			positions[i] = ps
		}
	}
	return nil
}
