package encoding

import "errors"

// The three codecs the paper cites (§II), refitted onto the Codec
// interface. VarByteCodec's wire format is byte-for-byte the
// EncodePostings/EncodePositionalPostings output.

// Registered codec singletons.
var (
	VarByteCodec   Codec = varByteCodec{}
	GammaCodec     Codec = gammaCodec{}
	GolombCodec    Codec = golombCodec{}
	BitPackCodec   Codec = bitPackCodec{}
	EliasFanoCodec Codec = eliasFanoCodec{}
)

// ---------------------------------------------------------------- varbyte

type varByteCodec struct{}

func (varByteCodec) ID() CodecID  { return CodecVarByte }
func (varByteCodec) Name() string { return "varbyte" }

// MinBytes: every posting costs at least one gap byte and one tf byte.
func (varByteCodec) MinBytes(count int) int { return 2 * count }

func (varByteCodec) Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if positions != nil {
		return EncodePositionalPostings(dst, docIDs, tfs, positions)
	}
	return EncodePostings(dst, docIDs, tfs)
}

func (varByteCodec) Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error) {
	if positional {
		docIDs, tfs, positions, _, err = DecodePositionalPostings(src, count)
		return docIDs, tfs, positions, err
	}
	docIDs, tfs, _, err = DecodePostings(src, count)
	return docIDs, tfs, nil, err
}

func (varByteCodec) DecodeInto(src []byte, docIDs, tfs []uint32) error {
	_, err := decodeVarByte(src, docIDs, tfs, nil)
	return err
}

// ---------------------------------------------------------------- gamma

// gammaCodec is a pure Elias-gamma bitstream: per posting
// gamma(docGap+1), gamma(tf+1), then for positional lists the tf
// position gaps as gamma(posGap+1). The first docID and the first
// position of each document are absolute; +1 makes zero encodable
// (gamma is undefined for 0).
type gammaCodec struct{}

func (gammaCodec) ID() CodecID  { return CodecGamma }
func (gammaCodec) Name() string { return "gamma" }

// MinBytes: at least one gamma bit for the gap and one for the tf.
func (gammaCodec) MinBytes(count int) int { return (2*count + 7) / 8 }

func (gammaCodec) Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if err := checkList(docIDs, tfs, positions); err != nil {
		return nil, err
	}
	w := NewBitWriter(dst)
	prev := uint32(0)
	for i, id := range docIDs {
		PutGamma(w, uint64(id-prev)+1)
		PutGamma(w, uint64(tfs[i])+1)
		if positions != nil {
			writeGammaPositions(w, positions[i])
		}
		prev = id
	}
	return w.Bytes(), nil
}

func (c gammaCodec) Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error) {
	if err := checkBitCount(src, count); err != nil {
		return nil, nil, nil, err
	}
	docIDs, tfs, positions = allocPostings(count, positional)
	if err := c.decode(src, docIDs, tfs, positions); err != nil {
		return nil, nil, nil, err
	}
	return docIDs, tfs, positions, nil
}

func (c gammaCodec) DecodeInto(src []byte, docIDs, tfs []uint32) error {
	return c.decode(src, docIDs, tfs, nil)
}

// decode is the gamma decode loop; non-nil positions marks the
// positional layout. Every posting costs at least two bits, so a count
// past checkBitCount's bound always ends in a truncation error here.
func (gammaCodec) decode(src []byte, docIDs, tfs []uint32, positions [][]uint32) error {
	tfs = tfs[:len(docIDs)] // one length for the compiler, too
	r := NewBitReader(src)
	var prev uint32
	for i := range docIDs {
		gap, ok := Gamma(r)
		if !ok || gap == 0 {
			return errors.New("encoding: gamma: truncated gap")
		}
		tf, ok := Gamma(r)
		if !ok || tf == 0 {
			return errors.New("encoding: gamma: truncated tf")
		}
		prev += uint32(gap - 1)
		docIDs[i] = prev
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

// allocPostings allocates Decode's result slices once count has been
// bounded by the input.
func allocPostings(count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32) {
	docIDs = make([]uint32, count)
	tfs = make([]uint32, count)
	if positional {
		positions = make([][]uint32, count)
	}
	return docIDs, tfs, positions
}

// writeGammaPositions emits one document's position gaps (first
// absolute) as gamma(v+1).
func writeGammaPositions(w *BitWriter, ps []uint32) {
	prev := uint32(0)
	for _, p := range ps {
		PutGamma(w, uint64(p-prev)+1)
		prev = p
	}
}

// readGammaPositions reads tf gamma-coded position gaps. tf is
// untrusted: every position costs at least one bit, so it is bounded
// by the total input size before allocating.
func readGammaPositions(r *BitReader, tf uint64, srcLen int) ([]uint32, error) {
	if tf > uint64(srcLen)*8 {
		return nil, errors.New("encoding: gamma: tf exceeds input")
	}
	ps := make([]uint32, tf)
	var cur uint32
	for j := range ps {
		pg, ok := Gamma(r)
		if !ok || pg == 0 {
			return nil, errors.New("encoding: gamma: truncated position")
		}
		cur += uint32(pg - 1)
		ps[j] = cur
	}
	return ps, nil
}

// checkBitCount rejects counts the bitstream cannot possibly hold
// (>= 2 bits per posting) before allocating count-sized slices.
func checkBitCount(src []byte, count int) error {
	if count < 0 || uint64(count)*2 > uint64(len(src))*8 {
		return errors.New("encoding: postings count exceeds input")
	}
	return nil
}

// ---------------------------------------------------------------- golomb

// golombCodec stores the per-list Golomb parameter b as a varbyte
// header (so decode is self-contained), then per posting
// golomb(docGap, b), gamma(tf+1), and positional gaps as gamma. b is
// the textbook-optimal parameter for the list's density, derived from
// its last docID and count.
type golombCodec struct{}

func (golombCodec) ID() CodecID  { return CodecGolomb }
func (golombCodec) Name() string { return "golomb" }

// MinBytes: the b header byte plus >= 2 bits per posting (one unary
// gap bit, one tf bit).
func (golombCodec) MinBytes(count int) int { return 1 + (2*count+7)/8 }

func (golombCodec) Encode(dst []byte, docIDs, tfs []uint32, positions [][]uint32) ([]byte, error) {
	if err := checkList(docIDs, tfs, positions); err != nil {
		return nil, err
	}
	b := uint64(1)
	if n := len(docIDs); n > 0 {
		b = GolombParam(uint64(docIDs[n-1])+1, uint64(n))
	}
	dst = PutUvarByte(dst, b)
	w := NewBitWriter(dst)
	prev := uint32(0)
	for i, id := range docIDs {
		PutGolomb(w, uint64(id-prev), b)
		PutGamma(w, uint64(tfs[i])+1)
		if positions != nil {
			writeGammaPositions(w, positions[i])
		}
		prev = id
	}
	return w.Bytes(), nil
}

func (c golombCodec) Decode(src []byte, count int, positional bool) (docIDs, tfs []uint32, positions [][]uint32, err error) {
	// Bounds the allocation only (the header's bytes count as body):
	// decode checks the header and runs out of bits on any count the
	// body cannot hold.
	if err := checkBitCount(src, count); err != nil {
		return nil, nil, nil, err
	}
	docIDs, tfs, positions = allocPostings(count, positional)
	if err := c.decode(src, docIDs, tfs, positions); err != nil {
		return nil, nil, nil, err
	}
	return docIDs, tfs, positions, nil
}

func (c golombCodec) DecodeInto(src []byte, docIDs, tfs []uint32) error {
	return c.decode(src, docIDs, tfs, nil)
}

// decode is the Golomb decode loop; non-nil positions marks the
// positional layout. Every posting costs at least two bits after the
// header, so a count past checkBitCount's bound ends in a truncation
// error here.
func (golombCodec) decode(src []byte, docIDs, tfs []uint32, positions [][]uint32) error {
	b, m := UvarByte(src)
	if m <= 0 || b == 0 {
		return errors.New("encoding: golomb: bad parameter header")
	}
	src = src[m:]
	tfs = tfs[:len(docIDs)] // one length for the compiler, too
	r := NewBitReader(src)
	var prev uint32
	for i := range docIDs {
		gap, ok := Golomb(r, b)
		if !ok {
			return errors.New("encoding: golomb: truncated gap")
		}
		tf, ok := Gamma(r)
		if !ok || tf == 0 {
			return errors.New("encoding: golomb: truncated tf")
		}
		prev += uint32(gap)
		docIDs[i] = prev
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
