package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestRunFormatGolden pins the on-disk run format: any change to the
// layout (header with avgRef, entry size, flags, codec, the blocked
// layout's skip entries and impacts) must be deliberate — it breaks
// every existing index — and shows up here as a hash change.
func TestRunFormatGolden(t *testing.T) {
	b := NewRunBuilder()
	b.EnableBlocks()
	lens := make([]uint32, 400)
	for i := range lens {
		lens[i] = uint32(5 + i%40)
	}
	b.SetDocLens(lens)
	if err := b.AddList(37, 0, []uint32{1, 5, 130}, []uint32{2, 1, 7}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPositionalList(442, 3,
		[]uint32{9, 300}, []uint32{2, 1}, [][]uint32{{0, 128}, {4}}); err != nil {
		t.Fatal(err)
	}
	// Two blocks and a tail, the last posting past the length table.
	docs := make([]uint32, 2*BlockLen+3)
	tfs := make([]uint32, len(docs))
	for i := range docs {
		docs[i], tfs[i] = uint32(i+i/2), uint32(1+i%5)
	}
	docs[len(docs)-1] = 450
	if err := b.AddList(50, 1, docs, tfs); err != nil {
		t.Fatal(err)
	}
	data := b.Finalize(1, 450)
	sum := sha256.Sum256(data)
	const want = "19f913f7c632122970297f3116a6822d952906fd84431e0c629e1851175d1cb7"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("run format changed: sha256 = %s, want %s (update deliberately)", got, want)
	}
	rf, err := openRunBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	e, _ := rf.Find(50, 1)
	bl, err := rf.BlocksCtx(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if bl.NumBlocks() != 3 || bl.AvgRef() != AvgDocLen(lens) {
		t.Fatalf("blocked list: %d blocks, avgRef %v; want 3 blocks, avgRef %v", bl.NumBlocks(), bl.AvgRef(), AvgDocLen(lens))
	}
	for i := 0; i < bl.NumBlocks(); i++ {
		if bl.Skip(i).Impact == 0 {
			t.Errorf("block %d written with lengths carries impact 0", i)
		}
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
