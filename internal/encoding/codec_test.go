package encoding

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// codecLists covers the shapes that have bitten decoders before: doc 0,
// single posting, dense gap-1 runs, sparse jumps, max uint32, and tf
// spreads from 1 to large.
func codecLists() [][3][]uint32 {
	// Each case: docIDs, tfs (positions derived for positional tests).
	mk := func(docs, tfs []uint32) [3][]uint32 { return [3][]uint32{docs, tfs, nil} }
	cases := [][3][]uint32{
		mk([]uint32{0}, []uint32{1}),
		mk([]uint32{0, 1}, []uint32{1, 1}),
		mk([]uint32{5}, []uint32{300}),
		mk([]uint32{1, 5, 130}, []uint32{2, 1, 7}),
		mk([]uint32{0, 1, 2, 3, 4, 5, 6, 7}, []uint32{1, 2, 3, 4, 5, 6, 7, 8}),
		mk([]uint32{100, 1 << 20, 1 << 30, ^uint32(0)}, []uint32{1, 9, 1, 65000}),
		mk([]uint32{^uint32(0) - 1, ^uint32(0)}, []uint32{1, 1}),
	}
	// A dense Zipf-head-like list and a sparse tail list, both long
	// enough to exercise multiple bit-pack blocks.
	r := rand.New(rand.NewSource(7))
	var dense, sparse, dtf, stf []uint32
	d, s := uint32(0), uint32(0)
	for i := 0; i < 300; i++ {
		d += 1 + uint32(r.Intn(3))
		s += 1 + uint32(r.Intn(100000))
		dense = append(dense, d)
		sparse = append(sparse, s)
		dtf = append(dtf, 1+uint32(r.Intn(4)))
		stf = append(stf, 1+uint32(r.Intn(2)))
	}
	cases = append(cases, mk(dense, dtf), mk(sparse, stf))
	return cases
}

// testPositions derives a valid strictly-ascending position set for
// each posting's tf.
func testPositions(tfs []uint32) [][]uint32 {
	out := make([][]uint32, len(tfs))
	for i, tf := range tfs {
		ps := make([]uint32, tf)
		p := uint32(i % 3)
		for j := range ps {
			ps[j] = p
			p += 1 + uint32(j%5)
		}
		out[i] = ps
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	for _, c := range Codecs() {
		for ci, tc := range codecLists() {
			docs, tfs := tc[0], tc[1]
			// Plain.
			buf, err := c.Encode(nil, docs, tfs, nil)
			if err != nil {
				t.Fatalf("%s case %d: encode: %v", c.Name(), ci, err)
			}
			if len(buf) < c.MinBytes(len(docs)) {
				t.Fatalf("%s case %d: encoded %d bytes below MinBytes %d",
					c.Name(), ci, len(buf), c.MinBytes(len(docs)))
			}
			gd, gt, gp, err := c.Decode(buf, len(docs), false)
			if err != nil {
				t.Fatalf("%s case %d: decode: %v", c.Name(), ci, err)
			}
			if !reflect.DeepEqual(gd, docs) || !reflect.DeepEqual(gt, tfs) || gp != nil {
				t.Fatalf("%s case %d: round-trip mismatch", c.Name(), ci)
			}
			// Positional.
			pos := testPositions(tfs)
			buf, err = c.Encode(nil, docs, tfs, pos)
			if err != nil {
				t.Fatalf("%s case %d: positional encode: %v", c.Name(), ci, err)
			}
			if len(buf) < c.MinBytes(len(docs)) {
				t.Fatalf("%s case %d: positional encoded %d bytes below MinBytes %d",
					c.Name(), ci, len(buf), c.MinBytes(len(docs)))
			}
			gd, gt, gp, err = c.Decode(buf, len(docs), true)
			if err != nil {
				t.Fatalf("%s case %d: positional decode: %v", c.Name(), ci, err)
			}
			if !reflect.DeepEqual(gd, docs) || !reflect.DeepEqual(gt, tfs) || !reflect.DeepEqual(gp, pos) {
				t.Fatalf("%s case %d: positional round-trip mismatch", c.Name(), ci)
			}
		}
	}
}

// TestCodecVarByteWireCompat pins VarByteCodec to the historical wire
// format: version-3 run files must decode through the registry
// unchanged.
func TestCodecVarByteWireCompat(t *testing.T) {
	docs := []uint32{1, 5, 130}
	tfs := []uint32{2, 1, 7}
	want, err := EncodePostings(nil, docs, tfs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := VarByteCodec.Encode(nil, docs, tfs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("VarByteCodec output % x, legacy % x", got, want)
	}
	pos := [][]uint32{{0, 128}, {4}, {1, 2, 3, 4, 5, 6, 7}}
	want, err = EncodePositionalPostings(nil, docs, tfs, pos)
	if err != nil {
		t.Fatal(err)
	}
	got, err = VarByteCodec.Encode(nil, docs, tfs, pos)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("positional VarByteCodec output % x, legacy % x", got, want)
	}
}

func TestCodecRegistry(t *testing.T) {
	for id := CodecID(0); id < NumCodecs; id++ {
		c, err := Lookup(id)
		if err != nil {
			t.Fatalf("Lookup(%d): %v", id, err)
		}
		if c.ID() != id {
			t.Fatalf("codec %q registered at %d reports ID %d", c.Name(), id, c.ID())
		}
		byName, err := ByName(c.Name())
		if err != nil || byName.ID() != id {
			t.Fatalf("ByName(%q) = %v, %v", c.Name(), byName, err)
		}
	}
	if _, err := Lookup(NumCodecs); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("Lookup(out of range) = %v, want ErrUnknownCodec", err)
	}
	if _, err := ByName("zstd"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("ByName(unknown) = %v, want ErrUnknownCodec", err)
	}
	if CodecVarByte != 0 {
		t.Fatal("CodecVarByte must be 0: version-3 entries carry zero codec bits")
	}
}

func TestCodecSelectors(t *testing.T) {
	if c := AutoSelect(10, 0, 1000, false); c.ID() != CodecVarByte {
		t.Fatalf("short list selected %s", c.Name())
	}
	if c := AutoSelect(128, 0, 255, false); c.ID() != CodecBitPack {
		t.Fatalf("dense list selected %s", c.Name())
	}
	if c := AutoSelect(128, 0, 1<<24, false); c.ID() != CodecEliasFano {
		t.Fatalf("sparse list selected %s", c.Name())
	}
	sel, err := SelectorFor("auto")
	if err != nil || sel == nil {
		t.Fatalf("SelectorFor(auto): %v", err)
	}
	sel, err = SelectorFor("golomb")
	if err != nil {
		t.Fatal(err)
	}
	if c := sel(1<<20, 0, ^uint32(0), true); c.ID() != CodecGolomb {
		t.Fatalf("forced selector picked %s", c.Name())
	}
	if _, err := SelectorFor("lz4"); !errors.Is(err, ErrUnknownCodec) {
		t.Fatalf("SelectorFor(unknown) = %v", err)
	}
	if _, err := SelectorFor(""); err == nil {
		t.Fatal("SelectorFor(\"\") must error; defaults are the caller's choice")
	}
}

// TestCodecEncodeRejectsBadInput: every codec enforces the shared list
// invariants instead of silently corrupting.
func TestCodecEncodeRejectsBadInput(t *testing.T) {
	for _, c := range Codecs() {
		if _, err := c.Encode(nil, []uint32{5, 5}, []uint32{1, 1}, nil); !errors.Is(err, ErrNotSorted) {
			t.Fatalf("%s: duplicate docIDs: %v", c.Name(), err)
		}
		if _, err := c.Encode(nil, []uint32{5, 2}, []uint32{1, 1}, nil); !errors.Is(err, ErrNotSorted) {
			t.Fatalf("%s: descending docIDs: %v", c.Name(), err)
		}
		if _, err := c.Encode(nil, []uint32{1, 2}, []uint32{1}, nil); err == nil {
			t.Fatalf("%s: accepted docID/tf length mismatch", c.Name())
		}
		if _, err := c.Encode(nil, []uint32{1}, []uint32{2}, [][]uint32{{3}}); err == nil {
			t.Fatalf("%s: accepted tf/positions mismatch", c.Name())
		}
		if _, err := c.Encode(nil, []uint32{1}, []uint32{2}, [][]uint32{{3, 3}}); err == nil {
			t.Fatalf("%s: accepted non-ascending positions", c.Name())
		}
	}
}

// TestCodecDecodeBoundsCount: an absurd count against a tiny buffer
// must fail before allocating, for every codec.
func TestCodecDecodeBoundsCount(t *testing.T) {
	buf := []byte{1, 2, 3, 4}
	for _, c := range Codecs() {
		for _, positional := range []bool{false, true} {
			if _, _, _, err := c.Decode(buf, 1<<30, positional); err == nil {
				t.Fatalf("%s (positional=%v): accepted count 1<<30 for 4 bytes", c.Name(), positional)
			}
		}
	}
}

// TestCodecSizesOnClasses documents the selection heuristic's payoff:
// on a dense gap-1..3 list bitpack beats varbyte, on a sparse list
// Elias-Fano beats varbyte.
func TestCodecSizesOnClasses(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	size := func(c Codec, docs, tfs []uint32) int {
		buf, err := c.Encode(nil, docs, tfs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(buf)
	}
	var dense, sparse, tfs []uint32
	d, s := uint32(0), uint32(0)
	for i := 0; i < 1024; i++ {
		d += 1 + uint32(r.Intn(3))
		s += 1000 + uint32(r.Intn(100000))
		dense = append(dense, d)
		sparse = append(sparse, s)
		tfs = append(tfs, 1+uint32(r.Intn(3)))
	}
	if bp, vb := size(BitPackCodec, dense, tfs), size(VarByteCodec, dense, tfs); bp >= vb {
		t.Errorf("dense list: bitpack %d bytes not below varbyte %d", bp, vb)
	}
	if ef, vb := size(EliasFanoCodec, sparse, tfs), size(VarByteCodec, sparse, tfs); ef >= vb {
		t.Errorf("sparse list: eliasfano %d bytes not below varbyte %d", ef, vb)
	}
}

// checkDecodeInto holds DecodeInto to its contract on one input, valid
// or not: into exact-length slices it fails if and only if
// Decode(data, count, false) does, otherwise leaves the same postings,
// and never touches the words either side of the slices it was given.
func checkDecodeInto(t *testing.T, c Codec, data []byte, count int) {
	t.Helper()
	wantDocs, wantTFs, _, wantErr := c.Decode(data, count, false)
	const guard = 0xA5A5A5A5
	buf := make([]uint32, 2*count+3)
	for i := range buf {
		buf[i] = guard
	}
	docs := buf[1 : 1+count : 1+count]
	tfs := buf[2+count : 2+2*count : 2+2*count]
	err := c.DecodeInto(data, docs, tfs)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s count %d: DecodeInto = %v, Decode = %v", c.Name(), count, err, wantErr)
	}
	if buf[0] != guard || buf[1+count] != guard || buf[2+2*count] != guard {
		t.Fatalf("%s count %d: DecodeInto wrote outside its slices", c.Name(), count)
	}
	if err != nil {
		return
	}
	for i := range docs {
		if docs[i] != wantDocs[i] || tfs[i] != wantTFs[i] {
			t.Fatalf("%s count %d: posting %d = (%d, %d), Decode gave (%d, %d)",
				c.Name(), count, i, docs[i], tfs[i], wantDocs[i], wantTFs[i])
		}
	}
}

// TestDecodeIntoIsDecode runs that check for every codec at the counts
// either side of a 128-posting block, dense and sparse, on the valid
// encoding, on every truncation of it, with the count off by one in
// both directions, and on a body whose every byte claims the most.
func TestDecodeIntoIsDecode(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, c := range Codecs() {
		for _, count := range []int{1, 2, 127, 128, 129} {
			for _, maxGap := range []int{3, 100000} {
				docs := make([]uint32, count)
				tfs := make([]uint32, count)
				d := uint32(r.Intn(maxGap))
				for i := range docs {
					docs[i] = d
					tfs[i] = 1 + uint32(r.Intn(6))
					d += 1 + uint32(r.Intn(maxGap))
				}
				enc, err := c.Encode(nil, docs, tfs, nil)
				if err != nil {
					t.Fatal(err)
				}
				intoDocs, intoTFs := make([]uint32, count), make([]uint32, count)
				if allocs := testing.AllocsPerRun(5, func() {
					if err := c.DecodeInto(enc, intoDocs, intoTFs); err != nil {
						t.Fatalf("%s count %d: DecodeInto of a valid body: %v", c.Name(), count, err)
					}
				}); allocs != 0 {
					t.Errorf("%s count %d: DecodeInto allocated %.0f times", c.Name(), count, allocs)
				}
				for cut := 0; cut <= len(enc); cut++ {
					checkDecodeInto(t, c, enc[:cut], count)
				}
				checkDecodeInto(t, c, enc, count-1)
				checkDecodeInto(t, c, enc, count+1)
				checkDecodeInto(t, c, enc, 0)
				ones := make([]byte, len(enc))
				for i := range ones {
					ones[i] = 0xff
				}
				checkDecodeInto(t, c, ones, count)
				checkDecodeInto(t, c, make([]byte, len(enc)), count)
			}
		}
	}
}
