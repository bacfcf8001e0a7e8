package encoding

import "testing"

// FuzzCodecRoundTrip drives every registered codec's Decode with
// adversarial bytes: it must never panic or allocate unboundedly, and
// whatever it accepts must survive a re-encode/re-decode cycle with
// identical values (decoders and encoders agree on the wire format).
// On the same bytes DecodeInto must be Decode (checkDecodeInto): same
// verdict, same postings, nothing written outside its slices.
func FuzzCodecRoundTrip(f *testing.F) {
	docs := []uint32{1, 5, 130, 1 << 20}
	tfs := []uint32{2, 1, 7, 3}
	pos := [][]uint32{{0, 9}, {4}, {1, 2, 3, 4, 5, 6, 7}, {10, 20, 30}}
	for _, c := range Codecs() {
		if buf, err := c.Encode(nil, docs, tfs, nil); err == nil {
			f.Add(buf, uint16(len(docs)), uint8(c.ID()), false)
		}
		if buf, err := c.Encode(nil, docs, tfs, pos); err == nil {
			f.Add(buf, uint16(len(docs)), uint8(c.ID()), true)
		}
	}
	f.Add([]byte{0xff, 0xff, 0xff}, uint16(9), uint8(3), false)
	f.Add([]byte{}, uint16(0), uint8(4), true)

	eq := func(a, b []uint32) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	f.Fuzz(func(t *testing.T, data []byte, count uint16, codecID uint8, positional bool) {
		c, err := Lookup(CodecID(codecID % NumCodecs))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodeInto(t, c, data, int(count))
		gotDocs, gotTFs, gotPos, err := c.Decode(data, int(count), positional)
		if err != nil {
			return // malformed input rejected: exactly the contract
		}
		if len(gotDocs) != int(count) || len(gotTFs) != int(count) {
			t.Fatalf("%s: decoded %d/%d values for count %d",
				c.Name(), len(gotDocs), len(gotTFs), count)
		}
		if !positional && gotPos != nil {
			t.Fatalf("%s: non-positional decode returned positions", c.Name())
		}
		// Accepted bytes may still decode to lists that violate the
		// encoder's invariants (unsorted docIDs from zero gaps etc.);
		// those cannot round-trip and Encode must reject them.
		enc, err := c.Encode(nil, gotDocs, gotTFs, gotPos)
		if err != nil {
			return
		}
		d2, t2, p2, err := c.Decode(enc, int(count), positional)
		if err != nil {
			t.Fatalf("%s: re-decode of own encoding failed: %v", c.Name(), err)
		}
		if !eq(d2, gotDocs) || !eq(t2, gotTFs) || len(p2) != len(gotPos) {
			t.Fatalf("%s: re-encode round-trip mismatch", c.Name())
		}
		for i := range p2 {
			if !eq(p2[i], gotPos[i]) {
				t.Fatalf("%s: re-encode positions mismatch at %d", c.Name(), i)
			}
		}
	})
}
