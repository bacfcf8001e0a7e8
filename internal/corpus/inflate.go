package corpus

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
)

// The build's gunzip (RFC 1951 inside RFC 1952), slice to slice. The
// stored file is one []byte and the output another, so the decoder
// needs no reader interface and no window ring: a back-reference is a
// copy inside the output. Its verdicts are compress/gzip's, value for
// value (io.EOF on an empty file, io.ErrUnexpectedEOF, gzip.ErrHeader,
// gzip.ErrChecksum, flate.CorruptInputError), and it reports them at
// the same points of the stream, so the bytes it returns before a
// verdict are the ones the stdlib reader would have returned.
//
// Input is read through a 64-bit bit buffer refilled eight bytes at a
// time. Near the end of the input the refill pads with zero bytes;
// over counts them, and any bit taken from the padding (nb < 8*over)
// is a truncated stream. The hot loop checks that lazily, once per
// literal/length symbol and on every exit, which bounds the padding it
// can act on to one symbol; the block headers check it on every read.

const (
	rootBits = 10 // primary index width of every Huffman table
	rootMask = 1<<rootBits - 1

	// matchSlack is the room the hot loop keeps free past the output
	// cursor: a longest match plus the seven bytes its last 8-byte
	// chunk may overrun.
	matchSlack = 258 + 8

	maxLit  = 286 // literal/length codes a dynamic block may define
	maxDist = 30  // distance codes a dynamic block may define
)

// A table entry packs what one code decodes to:
//
//	bits  0..3   code length; the subtable's index width on a link
//	bits  4..7   extra bits to read after the code
//	bits  8..10  kind
//	bits 16..31  literal byte, base length or distance, or subtable offset
//
// An entry of kind kindBad and code length 0 is a code the table does
// not define.
const (
	kindLit  = 0 << 8 // a literal byte (a code-length symbol in the header)
	kindLen  = 1 << 8 // a length or distance: base plus extra bits
	kindEOB  = 2 << 8
	kindLink = 3 << 8 // index the subtable with the bits past rootBits
	kindBad  = 4 << 8 // a symbol DEFLATE reserves (286, 287; distance 30, 31)
	kindMask = 7 << 8
)

var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}

	// Each alphabet's entries before the code length is added.
	litSyms  [288]uint32
	distSyms [32]uint32
	clSyms   [19]uint32

	// The order code-length code lengths are sent in (RFC 1951 §3.2.7).
	clOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	fixedLit, fixedDist huffTable // the fixed-Huffman block's codes (§3.2.6)
)

func init() {
	for s := range litSyms {
		switch {
		case s < 256:
			litSyms[s] = uint32(s)<<16 | kindLit
		case s == 256:
			litSyms[s] = kindEOB
		case s < maxLit:
			litSyms[s] = uint32(lenBase[s-257])<<16 | uint32(lenExtra[s-257])<<4 | kindLen
		default:
			litSyms[s] = kindBad
		}
	}
	for s := range distSyms {
		distSyms[s] = kindBad
		if s < maxDist {
			distSyms[s] = uint32(distBase[s])<<16 | uint32(distExtra[s])<<4 | kindLen
		}
	}
	for s := range clSyms {
		clSyms[s] = uint32(s)<<16 | kindLit
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	fixedLit.build(lens[:], litSyms[:])
	for s := range 32 {
		lens[s] = 5
	}
	fixedDist.build(lens[:32], distSyms[:])
}

// huffTable is a two-level canonical-Huffman decoding table.
type huffTable struct {
	e   []uint32 // 1<<rootBits primary entries, then the subtables
	min uint     // shortest code length, 0 for an empty code
}

// build fills t with the canonical code for lengths, each symbol s
// decoding to info[s]. It reports false for the code sets
// compress/flate refuses: over-subscribed ones, and incomplete ones
// other than the single one-bit code zlib also writes. An empty code is
// accepted; decoding with it fails.
func (t *huffTable) build(lengths []uint8, info []uint32) bool {
	var count [16]int
	for _, n := range lengths {
		count[n]++
	}
	lo, hi := 0, 0
	for n := 1; n < 16; n++ {
		if count[n] != 0 {
			if lo == 0 {
				lo = n
			}
			hi = n
		}
	}
	t.min = uint(lo)
	t.e = t.e[:0]
	for range 1 << rootBits {
		t.e = append(t.e, kindBad)
	}
	if hi == 0 {
		return true
	}
	var next [16]int
	code := 0
	for n := lo; n <= hi; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if code != 1<<hi && !(code == 1 && hi == 1) {
		return false
	}
	// Codes longer than rootBits go to subtables of one width, hi-rootBits,
	// one per primary slot they share.
	sub := uint32(max(hi-rootBits, 0))
	for s, n := range lengths {
		if n == 0 {
			continue
		}
		rev := int(bits.Reverse16(uint16(next[n]))) >> (16 - n)
		next[n]++
		ent := info[s] | uint32(n)
		if n <= rootBits {
			for i := rev; i < 1<<rootBits; i += 1 << n {
				t.e[i] = ent
			}
			continue
		}
		link := t.e[rev&rootMask]
		if link&kindMask != kindLink {
			link = uint32(len(t.e))<<16 | kindLink | sub
			t.e[rev&rootMask] = link
			for range 1 << sub {
				t.e = append(t.e, kindBad)
			}
		}
		base := int(link >> 16)
		for i := rev >> rootBits; i < 1<<sub; i += 1 << (int(n) - rootBits) {
			t.e[base+i] = ent
		}
	}
	return true
}

// inflater is one gunzip call's state.
type inflater struct {
	in   []byte
	pos  int    // next byte of in to load into bits
	over int    // zero bytes loaded past the end of in
	bits uint64 // nb valid bits at the bottom; above them, in[pos:] or zeros
	nb   uint

	out   []byte // the whole output buffer; out[:w] is decoded
	w     int
	start int // this member's first output byte: no distance reaches before it
	limit int // stop once w reaches it

	lit, dist, cl huffTable
	lens          [maxLit + maxDist]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// gunzip decodes the gzip members of src, concatenated, into buf's
// storage (or a larger buffer when buf has less than hint+matchSlack
// bytes of capacity). It stops at the first block boundary or symbol
// that brings the output to limit bytes or more; whole reports that it
// did not, but reached the end of src with every trailer checked.
func gunzip(buf, src []byte, hint, limit int) (out []byte, whole bool, err error) {
	d := inflaters.Get().(*inflater)
	defer func() {
		d.in, d.out = nil, nil
		inflaters.Put(d)
	}()
	if cap(buf) < hint+matchSlack {
		buf = make([]byte, hint+matchSlack)
	}
	d.in, d.pos, d.over, d.bits, d.nb = src, 0, 0, 0, 0
	d.out, d.w, d.limit = buf[:cap(buf)], 0, limit
	for first := true; first || d.pos < len(src); first = false {
		if err := d.header(); err != nil {
			return nil, false, err
		}
		d.start = d.w
		stopped, err := d.inflate()
		if err != nil {
			return nil, false, err
		}
		if stopped {
			return d.out[:d.w], false, nil
		}
		if err := d.trailer(); err != nil {
			return nil, false, err
		}
	}
	return d.out[:d.w], true, nil
}

// header parses a member header at d.pos, as gzip.Reader does: the
// flags' reserved bits are ignored, a name or comment runs at most 511
// bytes, and FHCRC is checked.
func (d *inflater) header() error {
	in := d.in[d.pos:]
	if len(in) < 10 {
		if len(in) == 0 {
			return io.EOF
		}
		return io.ErrUnexpectedEOF
	}
	if in[0] != 0x1f || in[1] != 0x8b || in[2] != 8 {
		return gzip.ErrHeader
	}
	const fhcrc, fextra, fname, fcomment = 1 << 1, 1 << 2, 1 << 3, 1 << 4
	flg, p := in[3], 10
	if flg&fextra != 0 {
		if len(in) < p+2 {
			return io.ErrUnexpectedEOF
		}
		p += 2 + int(binary.LittleEndian.Uint16(in[p:]))
		if len(in) < p {
			return io.ErrUnexpectedEOF
		}
	}
	for _, f := range [2]byte{fname, fcomment} {
		if flg&f == 0 {
			continue
		}
		field := in[p:min(len(in), p+512)]
		i := 0
		for i < len(field) && field[i] != 0 {
			i++
		}
		switch {
		case i < len(field):
			p += i + 1
		case len(field) == 512:
			return gzip.ErrHeader
		default:
			return io.ErrUnexpectedEOF
		}
	}
	if flg&fhcrc != 0 {
		if len(in) < p+2 {
			return io.ErrUnexpectedEOF
		}
		if binary.LittleEndian.Uint16(in[p:]) != uint16(crc32.ChecksumIEEE(in[:p])) {
			return gzip.ErrHeader
		}
		p += 2
	}
	d.pos += p
	return nil
}

// trailer checks the member's CRC-32 and ISIZE against its output.
func (d *inflater) trailer() error {
	if err := d.alignToByte(); err != nil {
		return err
	}
	in := d.in[d.pos:]
	if len(in) < 8 {
		return io.ErrUnexpectedEOF
	}
	plain := d.out[d.start:d.w]
	if binary.LittleEndian.Uint32(in) != crc32.ChecksumIEEE(plain) ||
		binary.LittleEndian.Uint32(in[4:]) != uint32(len(plain)) {
		return gzip.ErrChecksum
	}
	d.pos += 8
	return nil
}

// inflate decodes one DEFLATE stream. stopped reports that the output
// reached the limit first.
func (d *inflater) inflate() (stopped bool, err error) {
	for {
		if err := d.need(3); err != nil {
			return false, err
		}
		final, typ := d.bits&1 == 1, d.bits>>1&3
		d.consume(3)
		switch typ {
		case 0:
			stopped, err = d.storedBlock()
		case 1:
			stopped, err = d.huffmanBlock(&fixedLit, &fixedDist, 7)
		case 2:
			var minLit uint
			if minLit, err = d.dynamicHeader(); err == nil {
				stopped, err = d.huffmanBlock(&d.lit, &d.dist, minLit)
			}
		default:
			err = d.corrupt()
		}
		if err != nil || stopped || final {
			return stopped, err
		}
	}
}

// refill tops the bit buffer up to at least 56 bits.
func (d *inflater) refill() {
	if d.pos <= len(d.in)-8 {
		d.bits |= binary.LittleEndian.Uint64(d.in[d.pos:]) << d.nb
		d.pos += int(63-d.nb) >> 3
		d.nb |= 56
		return
	}
	d.bits, d.nb, d.pos, d.over = refillTail(d.in, d.bits, d.nb, d.pos, d.over)
}

// need makes k bits available, failing as the stdlib reader does when
// the input ends first.
func (d *inflater) need(k uint) error {
	if d.nb < k {
		d.refill()
	}
	if d.over != 0 && int(d.nb)-8*d.over < int(k) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

func (d *inflater) consume(k uint) {
	d.bits >>= k
	d.nb -= k
}

// truncated reports that a bit was taken from past the end of the input.
func (d *inflater) truncated() bool { return int(d.nb) < 8*d.over }

// corrupt is the verdict on input that cannot be DEFLATE. Every caller
// has checked that the bits it judged were real input, not padding.
func (d *inflater) corrupt() error {
	return flate.CorruptInputError(d.pos + d.over - int(d.nb/8))
}

// alignToByte drops the bits left in the current byte and hands the
// whole bytes still buffered back to the input.
func (d *inflater) alignToByte() error {
	if d.truncated() {
		return io.ErrUnexpectedEOF
	}
	d.pos += d.over - int(d.nb/8)
	d.over, d.bits, d.nb = 0, 0, 0
	return nil
}

// room makes space for n more output bytes past w.
func (d *inflater) room(n int) {
	if d.w+n <= len(d.out) {
		return
	}
	grown := make([]byte, max(2*len(d.out), d.w+n))
	copy(grown, d.out[:d.w])
	d.out = grown
}

// sym decodes one symbol of t outside the hot loop, reading no more
// input than the stdlib decoder would.
func (d *inflater) sym(t *huffTable) (uint32, error) {
	if d.nb < 15 {
		d.refill() // a lookup reads 15 bits, padding or not
	}
	if err := d.need(t.min); err != nil {
		return 0, err
	}
	e := t.e[d.bits&rootMask]
	if e&kindMask == kindLink {
		e = t.e[e>>16+uint32(d.bits>>rootBits)&(1<<(e&15)-1)]
	}
	n := uint(e & 15)
	if n == 0 {
		return 0, d.corrupt()
	}
	if err := d.need(n); err != nil {
		return 0, err
	}
	d.consume(n)
	return e >> 16, nil
}

// storedBlock copies an uncompressed block (§3.2.4).
func (d *inflater) storedBlock() (stopped bool, err error) {
	if err := d.alignToByte(); err != nil {
		return false, err
	}
	in := d.in[d.pos:]
	if len(in) < 4 {
		return false, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint16(in)
	if binary.LittleEndian.Uint16(in[2:]) != ^n {
		return false, flate.CorruptInputError(d.pos)
	}
	in = in[4:]
	avail := min(int(n), len(in))
	d.room(avail + matchSlack)
	d.w += copy(d.out[d.w:], in[:avail])
	d.pos += 4 + avail
	if d.w >= d.limit {
		return true, nil
	}
	if avail < int(n) {
		return false, io.ErrUnexpectedEOF
	}
	return false, nil
}

// dynamicHeader reads a dynamic block's code lengths (§3.2.7) into
// d.lit and d.dist, checking them in the stdlib decoder's order. minLit
// is the bits that decoder reads before each literal/length symbol: the
// shortest code, or the end-of-block code if that is longer.
func (d *inflater) dynamicHeader() (minLit uint, err error) {
	if err := d.need(14); err != nil {
		return 0, err
	}
	nlit := int(d.bits&31) + 257
	ndist := int(d.bits>>5&31) + 1
	nclen := int(d.bits>>10&15) + 4
	if nlit > maxLit || ndist > maxDist {
		return 0, d.corrupt()
	}
	d.consume(14)
	var cl [19]uint8
	for _, s := range clOrder[:nclen] {
		if err := d.need(3); err != nil {
			return 0, err
		}
		cl[s] = uint8(d.bits & 7)
		d.consume(3)
	}
	if !d.cl.build(cl[:], clSyms[:]) {
		return 0, d.corrupt()
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		x, err := d.sym(&d.cl)
		if err != nil {
			return 0, err
		}
		if x < 16 {
			lens[i] = uint8(x)
			i++
			continue
		}
		rep, xb, v := 3, uint(2), uint8(0)
		switch x {
		case 16:
			if i == 0 {
				return 0, d.corrupt()
			}
			v = lens[i-1]
		case 17:
			xb = 3
		default:
			rep, xb = 11, 7
		}
		if err := d.need(xb); err != nil {
			return 0, err
		}
		rep += int(d.bits & (1<<xb - 1))
		d.consume(xb)
		if i+rep > len(lens) {
			return 0, d.corrupt()
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !d.lit.build(lens[:nlit], litSyms[:]) || !d.dist.build(lens[nlit:], distSyms[:]) {
		return 0, d.corrupt()
	}
	return max(d.lit.min, uint(lens[256])), nil
}

// refillTail is the bit buffer's refill near the end of the input: one
// byte at a time, then zero bytes, counted in over.
func refillTail(in []byte, b uint64, nb uint, pos, over int) (uint64, uint, int, int) {
	for ; nb <= 56; nb += 8 {
		if pos < len(in) {
			b |= uint64(in[pos]) << nb
			pos++
		} else {
			over++
		}
	}
	return b, nb, pos, over
}

// huffmanBlock decodes one Huffman-coded block's symbols (§3.2.5). It
// keeps the bit buffer and output cursor in locals, written back on
// every exit.
func (d *inflater) huffmanBlock(lt, dt *huffTable, minLit uint) (stopped bool, err error) {
	in, out, lits, dists := d.in, d.out, lt.e, dt.e
	b, nb, pos, over, w, start := d.bits, d.nb, d.pos, d.over, d.w, d.start
	// The loop runs while w is short of the limit and has matchSlack
	// bytes of room behind it.
	stop := min(d.limit, len(out)-matchSlack+1)
	const (
		exitEOB = iota
		exitBad
		exitShort
		exitLimit
	)
	exit := exitEOB
	for {
		if w >= stop {
			if w >= d.limit {
				exit = exitLimit
				break
			}
			d.w = w
			d.room(matchSlack)
			out = d.out
			stop = min(d.limit, len(out)-matchSlack+1)
		}
		if nb < 15 { // a code is at most 15 bits
			if pos <= len(in)-8 {
				b |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				b, nb, pos, over = refillTail(in, b, nb, pos, over)
			}
		}
		if over != 0 && int(nb)-8*over < int(minLit) {
			exit = exitShort
			break
		}
		e := lits[b&rootMask]
		if e&kindMask == kindLink {
			e = lits[e>>16+uint32(b>>rootBits)&(1<<(e&15)-1)]
		}
		n := uint(e & 15)
		b >>= n
		nb -= n
		if e&kindMask == kindLit {
			out[w] = byte(e >> 16)
			w++
			continue
		}
		if e&kindMask != kindLen {
			if e&kindMask != kindEOB {
				exit = exitBad
			}
			break
		}
		// The rest of the pair is at most 5+15+13 bits.
		if nb < 33 {
			if pos <= len(in)-8 {
				b |= binary.LittleEndian.Uint64(in[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				b, nb, pos, over = refillTail(in, b, nb, pos, over)
			}
		}
		xb := uint(e >> 4 & 15)
		length := int(e>>16) + int(b&(1<<xb-1))
		b >>= xb
		nb -= xb

		e = dists[b&rootMask]
		if e&kindMask == kindLink {
			e = dists[e>>16+uint32(b>>rootBits)&(1<<(e&15)-1)]
		}
		n = uint(e & 15)
		b >>= n
		nb -= n
		if e&kindMask != kindLen {
			exit = exitBad
			break
		}
		xb = uint(e >> 4 & 15)
		dist := int(e>>16) + int(b&(1<<xb-1))
		b >>= xb
		nb -= xb
		if dist > w-start {
			exit = exitBad
			break
		}

		end := w + length
		if src := w - dist; dist >= 8 {
			for ; w < end; w, src = w+8, src+8 {
				binary.LittleEndian.PutUint64(out[w:], binary.LittleEndian.Uint64(out[src:]))
			}
		} else {
			// The copied span doubles each pass, keeping the period.
			for w < end {
				w += copy(out[w:end], out[src:w])
			}
		}
		w = end
	}
	d.bits, d.nb, d.pos, d.over, d.w = b, nb, pos, over, w
	switch {
	case exit == exitShort || d.truncated():
		return false, io.ErrUnexpectedEOF
	case exit == exitBad:
		return false, d.corrupt()
	}
	return exit == exitLimit, nil
}
