package corpus

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

func gz(t testing.TB, plain []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withISIZE returns a copy of a gzip file whose trailer claims size.
func withISIZE(stored []byte, size uint32) []byte {
	out := bytes.Clone(stored)
	binary.LittleEndian.PutUint32(out[len(out)-4:], size)
	return out
}

// oracle is what Decompress replaced: the stdlib reader drained by
// io.ReadAll, with no knowledge of the trailer.
func oracle(stored []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(stored))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// allocatedBy reports the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestDecompressTrailerIsOnlyAHint(t *testing.T) {
	plain := []byte(strings.Repeat("inverted files on heterogeneous platforms ", 2000))
	stored := gz(t, plain)
	if len(stored) > 1<<10 {
		t.Fatalf("test input grew to %d stored bytes; the allocation bound below assumes ~1 KiB", len(stored))
	}

	t.Run("lies high", func(t *testing.T) {
		lying := withISIZE(stored, math.MaxUint32)
		if got, limit := PlainSize(lying, true), len(lying)*maxInflateRatio; got > limit {
			t.Errorf("PlainSize = %d, above the %d that %d stored bytes can inflate to", got, limit, len(lying))
		}
		// Bounds before alloc: a 4 GiB claim from a 1 KiB file must
		// size nothing. The stream itself is intact, so the length
		// check at EOF still rejects the file, as it always did.
		var err error
		if n := allocatedBy(func() { _, err = Decompress(lying, true) }); n > 8<<20 {
			t.Errorf("Decompress allocated %d bytes for a %d-byte input", n, len(lying))
		}
		if err == nil {
			t.Error("Decompress accepted a trailer whose length is wrong")
		}
		// A prefix stops before the trailer and is unaffected by it.
		var prefix []byte
		if n := allocatedBy(func() { prefix, _, err = DecompressPrefix(lying, true, 100) }); n > 8<<20 {
			t.Errorf("DecompressPrefix allocated %d bytes for a 100-byte prefix", n)
		}
		if err != nil || !bytes.Equal(prefix, plain[:100]) {
			t.Errorf("prefix of 100 = %d bytes, err %v", len(prefix), err)
		}
		// Asking for everything reads the trailer and must fail on it.
		if _, _, err := DecompressPrefix(lying, true, math.MaxInt); err == nil {
			t.Error("whole-file prefix accepted a trailer whose length is wrong")
		}
	})

	t.Run("lies low", func(t *testing.T) {
		// Tampered down to zero: same verdict as the oracle, an error.
		if _, err := Decompress(withISIZE(stored, 0), true); err == nil {
			t.Error("Decompress accepted a trailer whose length is wrong")
		}
		// Honestly low: a multi-member file's trailer counts only its
		// last member. The output must still be complete.
		tail := []byte("tail")
		multi := append(bytes.Clone(stored), gz(t, tail)...)
		if got := PlainSize(multi, true); got != len(tail) {
			t.Fatalf("PlainSize of multi-member file = %d, want its last member's %d", got, len(tail))
		}
		want := append(bytes.Clone(plain), tail...)
		got, err := Decompress(multi, true)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("multi-member: got %d bytes, err %v; want %d", len(got), err, len(want))
		}
		// A prefix may span the member boundary.
		prefix, whole, err := DecompressPrefix(multi, true, len(plain)+2)
		if err != nil || whole || !bytes.Equal(prefix, want[:len(plain)+2]) {
			t.Errorf("prefix across members: %d bytes, whole %v, err %v", len(prefix), whole, err)
		}
	})
}

// A parser keeps the buffer DecompressInto returns and hands it back for
// its next file: a buffer that holds the file is written in place, and
// one too small is replaced, never truncating the output.
func TestDecompressIntoReusesBuffer(t *testing.T) {
	plain := []byte(strings.Repeat("inverted files on heterogeneous platforms ", 2000))
	stored := gz(t, plain)
	// A second member makes the trailer count only "tail", so ISIZE,
	// which sizes the buffer up front, lies low.
	multi := append(bytes.Clone(stored), gz(t, []byte("tail"))...)
	for _, tc := range []struct {
		name   string
		stored []byte
		buf    []byte
		reuse  bool
	}{
		{"nil", stored, nil, false},
		{"too small", stored, make([]byte, 100), false},
		{"room for the file", stored, make([]byte, 2*len(plain)), true},
		{"too small, trailer lies low", multi, make([]byte, 100), false},
	} {
		want, _ := oracle(tc.stored)
		out, err := DecompressInto(tc.buf, tc.stored, true)
		if err != nil || !bytes.Equal(out, want) {
			t.Fatalf("%s: %d bytes, err %v; want %d", tc.name, len(out), err, len(want))
		}
		if reused := cap(tc.buf) > 0 && &out[:1][0] == &tc.buf[:1][0]; reused != tc.reuse {
			t.Errorf("%s: buffer reused = %v, want %v", tc.name, reused, tc.reuse)
		}
	}
}

func TestDecompressPrefixSizes(t *testing.T) {
	plain := []byte(strings.Repeat("0123456789", 500))
	for _, compressed := range []bool{false, true} {
		stored := plain
		if compressed {
			stored = gz(t, plain)
		}
		for _, tc := range []struct {
			n     int
			want  int
			whole bool
		}{
			{-1, 0, false},
			{0, 0, false},
			{1, 1, false},
			{len(plain) - 1, len(plain) - 1, false},
			{len(plain), len(plain), true},
			{len(plain) + 1, len(plain), true},
			{100 * len(plain), len(plain), true},
			{math.MaxInt, len(plain), true},
		} {
			got, whole, err := DecompressPrefix(stored, compressed, tc.n)
			if err != nil {
				t.Fatalf("compressed=%v n=%d: %v", compressed, tc.n, err)
			}
			if !bytes.Equal(got, plain[:tc.want]) || whole != tc.whole {
				t.Errorf("compressed=%v n=%d: %d bytes whole=%v, want %d bytes whole=%v",
					compressed, tc.n, len(got), whole, tc.want, tc.whole)
			}
		}
	}
	// An empty file is whole at any n, compressed or not.
	for _, compressed := range []bool{false, true} {
		stored := []byte{}
		if compressed {
			stored = gz(t, nil)
		}
		got, whole, err := DecompressPrefix(stored, compressed, 0)
		if err != nil || len(got) != 0 || !whole {
			t.Errorf("empty file, compressed=%v: %d bytes whole=%v err %v", compressed, len(got), whole, err)
		}
	}
}

func TestDecompressPrefixStopsBeforeDamage(t *testing.T) {
	g := NewGenerator(smallProfile())
	stored, _ := g.GenerateFile(0)
	plain := g.GeneratePlain(0)
	cut := stored[:len(stored)/2]
	if _, err := Decompress(cut, true); err == nil {
		t.Fatal("Decompress accepted a truncated stream")
	}
	prefix, whole, err := DecompressPrefix(cut, true, 256)
	if err != nil || whole || !bytes.Equal(prefix, plain[:256]) {
		t.Errorf("prefix ahead of the cut: %d bytes, whole %v, err %v", len(prefix), whole, err)
	}
	if _, _, err := DecompressPrefix(cut, true, len(plain)); err == nil {
		t.Error("prefix past the cut accepted a truncated stream")
	}
}

// errClass names the verdict a gunzip reached: compress/gzip's error
// values are the contract, the message around them is not.
func errClass(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, gzip.ErrChecksum):
		return "checksum"
	case errors.Is(err, gzip.ErrHeader):
		return "header"
	case errors.As(err, &corrupt):
		return "corrupt"
	}
	return "untyped: " + err.Error()
}

// oracleMismatch runs stored through Decompress and through
// DecompressPrefix at each n, and holds them to the stdlib reader:
// Decompress returns the oracle's bytes or its verdict; a prefix is the
// oracle's first n bytes when it produced more than n before its
// verdict, all of them (whole) when it read the file cleanly, and its
// verdict otherwise. It describes the first difference, or returns nil.
func oracleMismatch(stored []byte, ns ...int) error {
	want, wantErr := oracle(stored)
	got, err := Decompress(stored, true)
	if errClass(err) != errClass(wantErr) {
		return fmt.Errorf("Decompress verdict %q, oracle %q", errClass(err), errClass(wantErr))
	}
	if err == nil && !bytes.Equal(got, want) {
		return fmt.Errorf("Decompress returned %d bytes, oracle %d", len(got), len(want))
	}
	for _, n := range ns {
		n = max(n, 0)
		prefix, whole, err := DecompressPrefix(stored, true, n)
		switch {
		case len(want) > n:
			if err != nil || whole || !bytes.Equal(prefix, want[:n]) {
				return fmt.Errorf("DecompressPrefix(%d) = %d bytes, whole %v, err %v; oracle read %d bytes first",
					n, len(prefix), whole, err, len(want))
			}
		case wantErr == nil:
			if err != nil || !whole || !bytes.Equal(prefix, want) {
				return fmt.Errorf("DecompressPrefix(%d) = %d bytes, whole %v, err %v; the file is %d bytes",
					n, len(prefix), whole, err, len(want))
			}
		case errClass(err) != errClass(wantErr):
			return fmt.Errorf("DecompressPrefix(%d) verdict %q, oracle %q after %d bytes",
				n, errClass(err), errClass(wantErr), len(want))
		}
	}
	return nil
}

// bitWriter packs DEFLATE's fields, least significant bit first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, which DEFLATE sends most significant bit first.
func (w *bitWriter) code(c uint64, n uint) { w.bits(uint64(bits.Reverse16(uint16(c)))>>(16-n), n) }

// fixed writes literal/length symbol sym in the fixed code (§3.2.6).
func (w *bitWriter) fixed(sym int) {
	switch {
	case sym < 144:
		w.code(uint64(0x30+sym), 8)
	case sym < 256:
		w.code(uint64(0x190+sym-144), 9)
	case sym < 280:
		w.code(uint64(sym-256), 7)
	default:
		w.code(uint64(0xc0+sym-280), 8)
	}
}

// match writes a <length, distance> pair in the fixed code.
func (w *bitWriter) match(length, dist int) {
	i := 28
	for lenBase[i] > uint16(length) {
		i--
	}
	w.fixed(257 + i)
	w.bits(uint64(length-int(lenBase[i])), uint(lenExtra[i]))
	j := 29
	for distBase[j] > uint16(dist) {
		j--
	}
	w.code(uint64(j), 5)
	w.bits(uint64(dist-int(distBase[j])), uint(distExtra[j]))
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.buf
}

// member wraps a raw DEFLATE stream in a minimal gzip header and a
// trailer for plain.
func member(deflate, plain []byte) []byte {
	out := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255}
	out = append(out, deflate...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(plain))
	return binary.LittleEndian.AppendUint32(out, uint32(len(plain)))
}

// gzLevel is gz at a compress/flate level, with a header carrying
// hdr's optional fields.
func gzLevel(t testing.TB, plain []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withHeaderCRC sets FHCRC on a member written by gzip.Writer (whose
// fixed header is 10 bytes with no optional field) and inserts the
// header's CRC-16, off by one when bad.
func withHeaderCRC(stored []byte, bad bool) []byte {
	hdr := append(bytes.Clone(stored[:10]), 0)[:10]
	hdr[3] |= 1 << 1
	crc := uint16(crc32.ChecksumIEEE(hdr))
	if bad {
		crc++
	}
	hdr = binary.LittleEndian.AppendUint16(hdr, crc)
	return append(hdr, stored[10:]...)
}

// dynamicHeader writes a dynamic block header (§3.2.7) whose
// code-length code has lengths cl and which defines nlit
// literal/length and ndist distance codes; the code lengths follow.
func (w *bitWriter) dynamicHeader(final bool, nlit, ndist int, cl map[int]uint) {
	w.bits(b2u(final)|2<<1, 3)
	w.bits(uint64(nlit-257), 5)
	w.bits(uint64(ndist-1), 5)
	w.bits(15, 4) // all 19 code-length code lengths follow
	for _, s := range clOrder {
		w.bits(uint64(cl[int(s)]), 3)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type inflateSeed struct {
	name   string
	stored []byte
}

// inflateSeeds is one file for each production the decoder parses and
// each way it refuses a stream.
func inflateSeeds(t testing.TB) []inflateSeed {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	text := []byte(strings.Repeat("inverted files on heterogeneous platforms, ", 200))
	noise := make([]byte, 40000)
	rng.Read(noise)
	var seeds []inflateSeed
	add := func(name string, stored []byte) { seeds = append(seeds, inflateSeed{name, stored}) }

	add("stored blocks", gzLevel(t, noise, gzip.NoCompression, gzip.Header{}))
	add("dynamic blocks", gzLevel(t, text, gzip.BestCompression, gzip.Header{}))
	add("dynamic blocks, fast", gzLevel(t, append(bytes.Clone(noise[:5000]), text...), gzip.BestSpeed, gzip.Header{}))
	add("huffman only", gzLevel(t, text, gzip.HuffmanOnly, gzip.Header{}))
	add("fixed block", gzLevel(t, []byte("abcabcabc"), gzip.DefaultCompression, gzip.Header{}))
	add("distance 1", gzLevel(t, bytes.Repeat([]byte{'x'}, 3000), gzip.DefaultCompression, gzip.Header{}))
	add("header fields", gzLevel(t, text, gzip.DefaultCompression,
		gzip.Header{Extra: []byte("xtra"), Name: "name.txt", Comment: "a comment"}))
	add("header crc", withHeaderCRC(gz(t, text), false))
	add("header crc bad", withHeaderCRC(gz(t, text), true))
	add("empty member", gz(t, nil))
	add("empty members", append(gz(t, nil), gz(t, nil)...))
	add("two members", append(gz(t, text), gzLevel(t, noise[:3000], gzip.NoCompression, gzip.Header{})...))
	add("trailing garbage", append(gz(t, text), "garbage after the member"...))
	add("trailing short garbage", append(gz(t, text), 0x1f, 0x8b))
	add("trailing zeros", append(gz(t, text), make([]byte, 16)...))
	add("bad trailer crc", func() []byte { s := gz(t, text); s[len(s)-8]++; return s }())
	add("name without end", append([]byte{0x1f, 0x8b, 8, 1 << 3, 0, 0, 0, 0, 0, 255}, bytes.Repeat([]byte{'n'}, 600)...))

	// Hand-made fixed-code blocks: overlapping copies, the longest
	// match, the farthest distance, and references the stream cannot
	// resolve.
	{
		var w bitWriter
		plain := []byte("ab")
		w.bits(1|1<<1, 3)
		w.fixed('a')
		w.fixed('b')
		w.match(258, 2) // distance < length
		w.match(7, 1)
		w.fixed(256)
		plain = append(plain, bytes.Repeat([]byte("ab"), 129)...)
		plain = append(plain, bytes.Repeat(plain[len(plain)-1:], 7)...)
		add("overlapping matches", member(w.bytes(), plain))
	}
	{
		// A 32 KiB stored block, then a fixed block reaching back 32768.
		var w bitWriter
		w.bits(0, 3)
		raw := append(w.bytes(), 0x00, 0x80, 0xff, 0x7f)
		raw = append(raw, noise[:32768]...)
		w = bitWriter{}
		w.bits(1|1<<1, 3)
		w.match(258, 32768)
		w.fixed(256)
		raw = append(raw, w.bytes()...)
		add("distance 32768", member(raw, append(bytes.Clone(noise[:32768]), noise[:258]...)))
	}
	for _, tc := range []struct {
		name string
		emit func(w *bitWriter)
	}{
		{"distance past the start", func(w *bitWriter) { w.fixed('a'); w.match(3, 2) }},
		{"literal/length 286", func(w *bitWriter) { w.fixed('a'); w.fixed(286) }},
		{"distance code 30", func(w *bitWriter) { w.fixed('a'); w.fixed(257); w.code(30, 5) }},
		{"no end of block", func(w *bitWriter) { w.fixed('a') }},
	} {
		var w bitWriter
		w.bits(1|1<<1, 3)
		tc.emit(&w)
		add(tc.name, member(w.bytes(), []byte("a")))
	}
	{
		// Member two may not reach into member one's output.
		var w bitWriter
		w.bits(1|1<<1, 3)
		w.match(3, 1)
		w.fixed(256)
		add("distance into the previous member", append(gz(t, text), member(w.bytes(), []byte("xxx"))...))
	}
	add("reserved block type", member([]byte{0x07}, nil))
	add("stored length mismatch", member([]byte{0x01, 0x05, 0x00, 0x00, 0x00, 'h', 'e', 'l', 'l', 'o'}, []byte("hello")))

	// Hand-made dynamic headers.
	{
		var w bitWriter
		cl := map[int]uint{}
		for s := range 19 {
			cl[s] = 1
		}
		w.dynamicHeader(true, 257, 1, cl)
		add("over-subscribed code-length code", member(w.bytes(), nil))
	}
	{
		var w bitWriter
		w.dynamicHeader(true, 257, 1, map[int]uint{1: 2, 2: 2})
		add("incomplete code-length code", member(w.bytes(), nil))
	}
	// A complete code-length code: 18 as "0", 1 as "10", 2 as "11".
	lengths := func(w *bitWriter, lit0, eob, dist0 uint) {
		w.dynamicHeader(true, 257, 1, map[int]uint{18: 1, 1: 2, 2: 2})
		sym := func(l uint) { w.code(uint64(0b10+l-1), 2) } // length 1 or 2
		sym(lit0)
		w.code(0, 1) // 18: 138 zeros
		w.bits(127, 7)
		w.code(0, 1) // 18: 117 zeros
		w.bits(106, 7)
		sym(eob)
		sym(dist0)
	}
	{
		var w bitWriter
		lengths(&w, 1, 1, 1) // literal 0 as "0", end of block as "1"
		w.code(0, 1)
		w.code(1, 1)
		add("dynamic one-bit codes", member(w.bytes(), []byte{0}))
	}
	{
		var w bitWriter
		lengths(&w, 2, 2, 1)
		add("incomplete literal/length code", member(w.bytes(), nil))
	}
	{
		// Literal 0 as "0", literal 1 as "10", end of block as "11", and
		// the stream cut one bit into a literal: a whole one-bit code is
		// left, but fewer bits than the end-of-block code, which the
		// stdlib decoder reads before any symbol, so it produces nothing.
		var w bitWriter
		w.dynamicHeader(true, 257, 1, map[int]uint{18: 1, 1: 2, 2: 2})
		w.code(0b10, 2) // literal 0: length 1
		w.code(0b11, 2) // literal 1: length 2
		w.code(0, 1)    // 18: 138 zeros
		w.bits(127, 7)
		w.code(0, 1) // 18: 116 zeros
		w.bits(105, 7)
		w.code(0b11, 2) // end of block: length 2
		w.code(0b10, 2) // distance 0: length 1
		for w.code(0, 1); w.n != 0; {
			w.code(0, 1)
		}
		add("cut short of the end-of-block code", append(member(nil, nil)[:10], w.bytes()...))
	}
	{
		var w bitWriter
		w.dynamicHeader(true, 257, 1, map[int]uint{18: 1, 16: 1})
		w.code(0, 1) // 16 ("0"; 18 is "1") with nothing to repeat
		add("repeat before any length", member(w.bytes(), nil))
	}
	{
		var w bitWriter
		w.dynamicHeader(true, 257, 1, map[int]uint{18: 1, 17: 1})
		for range 3 {
			w.code(0, 1) // 18: 138 zeros each, past the 258 lengths
			w.bits(127, 7)
		}
		add("repeat past the lengths", member(w.bytes(), nil))
	}
	{
		var w bitWriter
		w.bits(1|2<<1, 3)
		w.bits(30, 5) // 287 literal/length codes
		add("too many literal/length codes", member(w.bytes(), nil))
	}
	return seeds
}

// multiBlockFile is a small two-member file whose first member holds
// a dynamic, a fixed and a stored block.
func multiBlockFile(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, part := range []string{strings.Repeat("parse, index, merge; ", 12), "ab", "\x00\x01\x02\x03"} {
		if _, err := zw.Write([]byte(part)); err != nil {
			t.Fatal(err)
		}
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), gzLevel(t, []byte("second member"), gzip.NoCompression, gzip.Header{Name: "b"})...)
}

// withDeadline fails t with fn's error, or if fn runs longer than the
// decoder ever should.
func withDeadline(t *testing.T, name string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no verdict after 10s", name)
	}
}

func TestInflateMatchesOracle(t *testing.T) {
	for _, s := range inflateSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			want, _ := oracle(s.stored)
			m := len(want)
			withDeadline(t, s.name, func() error {
				return oracleMismatch(s.stored, 0, 1, m/2, m-1, m, m+1, math.MaxInt)
			})
		})
	}
	// Each cut is also read to just short of, exactly to and just past
	// what the oracle got out of it, where a decoder that reads ahead of
	// the stdlib's bit accounting returns a byte too many.
	file := multiBlockFile(t)
	for cut := 0; cut < len(file); cut++ {
		name := fmt.Sprintf("truncated at %d of %d", cut, len(file))
		got, _ := oracle(file[:cut])
		m := len(got)
		withDeadline(t, name, func() error {
			return oracleMismatch(file[:cut], 0, 1, m-1, m, m+1, math.MaxInt)
		})
	}
}

// FuzzDecompress holds Decompress and DecompressPrefix to the stdlib
// reader drained by io.ReadAll: same bytes, same verdict (errClass),
// whatever the trailer claims.
func FuzzDecompress(f *testing.F) {
	plain := []byte(strings.Repeat("the quick brown fox ", 300))
	good := gz(f, plain)
	f.Add(good, 0)
	f.Add(good, 777)
	f.Add(good, len(plain))
	f.Add(good[:len(good)/2], 64)
	f.Add(withISIZE(good, math.MaxUint32), 1<<20)
	f.Add(withISIZE(good, 0), 3)
	f.Add(append(bytes.Clone(good), gz(f, []byte("second member"))...), len(plain)+5)
	f.Add(gz(f, nil), 1)
	f.Add([]byte{}, 0)
	f.Add([]byte{0x1f, 0x8b, 8}, 10)
	f.Add([]byte("not gzip at all"), 10)
	for i, s := range inflateSeeds(f) {
		f.Add(s.stored, 37*i)
	}

	f.Fuzz(func(t *testing.T, stored []byte, n int) {
		if n < 0 {
			n = -(n + 1)
		}
		if err := oracleMismatch(stored, n); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDecompress inflates one bench-shaped ClueWeb file (the
// profile at scale 4, as corpusgen writes it for the benchmark) with
// Decompress into a reused buffer, as a parser does, and with the
// stdlib reader drained by io.ReadAll. MB/s is of inflated output.
func BenchmarkDecompress(b *testing.B) {
	stored, plain := NewGenerator(ClueWeb09(4)).GenerateFile(0)
	b.Run("gunzip", func(b *testing.B) {
		b.SetBytes(int64(plain))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			out, err := DecompressInto(buf, stored, true)
			if err != nil {
				b.Fatal(err)
			}
			buf = out
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.SetBytes(int64(plain))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := oracle(stored); err != nil {
				b.Fatal(err)
			}
		}
	})
}
