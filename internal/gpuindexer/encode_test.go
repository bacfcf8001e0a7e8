package gpuindexer

import (
	"bytes"
	"math/rand"
	"testing"

	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
	"fastinvert/internal/store"
)

// buildEncodeFixture indexes a few randomized runs (optionally
// positional) and returns the indexer with run postings still pending.
func buildEncodeFixture(t *testing.T, seed int64, positional bool) *Indexer {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ix := New(testDevice(), Config{})
	p := parser.New(nil)
	p.Positional = positional
	blk := parser.NewBlock(0)
	docs := 6 + rng.Intn(4)
	for d := 0; d < docs; d++ {
		p.ParseDoc(uint32(d), []byte(synthText(rng, 500)), blk)
	}
	if _, err := ix.IndexRun(groupsOf(blk), 100); err != nil {
		t.Fatal(err)
	}
	return ix
}

// drainRaw replays the engine's legacy raw-postings drain into rb,
// without resetting the run postings.
func drainRaw(t *testing.T, ix *Indexer, rb *store.RunBuilder) {
	t.Helper()
	for _, coll := range ix.Collections() {
		st := ix.Store(coll)
		for slot := 0; slot < st.NumSlots(); slot++ {
			l := st.List(int32(slot))
			var err error
			if l.Positional() {
				err = rb.AddPositionalList(coll, int32(slot), l.DocIDs, l.TFs, l.Positions)
			} else {
				err = rb.AddList(coll, int32(slot), l.DocIDs, l.TFs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEncodeRunByteIdentical pins the central property of the encoded
// drain: for the same pending postings and the same selector, the run
// file EncodeRun produces is byte-for-byte the file the raw-postings
// path produces — entry tables, codec choices, blob, version, CRC.
func TestEncodeRunByteIdentical(t *testing.T) {
	sel, err := encoding.SelectorFor("auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, positional := range []bool{false, true} {
		ix := buildEncodeFixture(t, 99, positional)

		raw := store.NewRunBuilderCodec(sel)
		drainRaw(t, ix, raw)
		enc := store.NewRunBuilder()
		if err := ix.EncodeRun(sel, enc); err != nil {
			t.Fatal(err)
		}
		want := raw.Finalize(100, 200)
		got := enc.Finalize(100, 200)
		if !bytes.Equal(got, want) {
			t.Fatalf("positional=%v: encoded run differs from raw run (%d vs %d bytes)",
				positional, len(got), len(want))
		}
		if st := ix.Stats(); st.EncodedLists != int64(raw.Lists()) || st.EncodedBytes == 0 {
			t.Fatalf("positional=%v: stats = %+v, want %d encoded lists", positional, st, raw.Lists())
		}

		// EncodeRun resets the per-run postings like the engine's drain.
		empty := store.NewRunBuilder()
		if err := ix.EncodeRun(sel, empty); err != nil {
			t.Fatal(err)
		}
		if empty.Lists() != 0 {
			t.Fatalf("positional=%v: second drain found %d lists, want 0", positional, empty.Lists())
		}
	}
}

// TestAddEncodedListValidation checks the builder rejects blobs that
// could not have come from a well-formed encoder.
func TestAddEncodedListValidation(t *testing.T) {
	good, err := encoding.VarByteCodec.Encode(nil, []uint32{1, 5}, []uint32{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	vb := store.EncodedFlags(encoding.CodecVarByte, false)
	cases := []struct {
		name  string
		count uint32
		flags uint32
		blob  []byte
	}{
		{"blocked layout", 2, vb | store.FlagBlocks, good},
		{"unknown flag bit", 2, vb | 1<<2, good},
		{"unknown codec", 2, store.EncodedFlags(encoding.CodecID(0xee), false), good},
		{"undersized blob", 200, vb, good},
	}
	for _, tc := range cases {
		rb := store.NewRunBuilder()
		if err := rb.AddEncodedList(3, 0, tc.count, tc.flags, tc.blob); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	rb := store.NewRunBuilder()
	if err := rb.AddEncodedList(3, 0, 2, vb, good); err != nil {
		t.Errorf("valid blob rejected: %v", err)
	}
	if err := rb.AddEncodedList(3, 1, 0, vb, nil); err != nil {
		t.Errorf("empty list must be skipped, got %v", err)
	}
	if rb.Lists() != 1 {
		t.Errorf("lists = %d, want 1", rb.Lists())
	}
}
