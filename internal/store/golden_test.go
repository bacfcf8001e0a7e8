package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRunFormatGolden pins the on-disk run format: any change to the
// layout (header, entry size, flags, codec) must be deliberate — it
// breaks every existing index — and shows up here as a hash change.
func TestRunFormatGolden(t *testing.T) {
	b := NewRunBuilder()
	if err := b.AddList(37, 0, []uint32{1, 5, 130}, []uint32{2, 1, 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPositionalList(442, 3,
		[]uint32{9, 300}, []uint32{2, 1}, [][]uint32{{0, 128}, {4}}); err != nil {
		t.Fatal(err)
	}
	data := b.Finalize(1, 300)
	sum := sha256.Sum256(data)
	const want = "e5a3345179a525e480839b203bfe65d70e5234dfbbc7ca91063bba42197b5d0c"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("run format changed: sha256 = %s, want %s (update deliberately)", got, want)
	}
}

// TestDictFormatGolden pins the front-coded dictionary format.
func TestDictFormatGolden(t *testing.T) {
	entries := []DictEntry{
		{"0195", 1, 0},
		{"apple", 11, 2},
		{"application", 442, 0},
		{"applied", 442, 1},
	}
	SortDictEntries(entries)
	var buf bytes.Buffer
	if err := WriteDictionary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "452b9d02782e0db03d485b315ef05933ce9b474a6339e6d97a41b444d4844126"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("dictionary format changed: sha256 = %s, want %s", got, want)
	}
}

// TestRunMagicGolden pins the magic bytes themselves. The u32 constant
// 0x4652494e spells "FRIN" — a historic transposition of the intended
// 'FIRN' — and is little-endian on disk, so the first four file bytes
// are 4e 49 52 46. Every existing index starts with these bytes; they
// are the format, typo and all.
func TestRunMagicGolden(t *testing.T) {
	b := NewRunBuilder()
	b.AddList(1, 0, []uint32{1}, []uint32{1})
	data := b.Finalize(1, 1)
	want := []byte{0x4e, 0x49, 0x52, 0x46}
	if !bytes.Equal(data[:4], want) {
		t.Errorf("run magic bytes = % x, want % x", data[:4], want)
	}
	if runMagic != 0x4652494e {
		t.Errorf("runMagic = %#x, want 0x4652494e (FRIN)", runMagic)
	}
}
