package store

import (
	"bytes"
	"context"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"fastinvert/internal/postings"
	"fastinvert/internal/trie"
)

func crc32ChecksumForTest(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

func putU32At(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

// memRun serves in-memory bytes to parseRunFile.
type memRun struct{ *bytes.Reader }

func (memRun) Close() error { return nil }

// openRunBytes parses data exactly as OpenRunFile parses a file.
func openRunBytes(data []byte) (*RunFile, error) {
	return parseRunFile("mem.post", memRun{bytes.NewReader(data)}, int64(len(data)), nil)
}

// readList decodes the list for (coll, slot); ok is false when the
// run holds no postings for it.
func readList(rf *RunFile, coll int, slot int32) (l *postings.List, ok bool, err error) {
	e, ok := rf.Find(uint32(coll), uint32(slot))
	if !ok {
		return nil, false, nil
	}
	l, err = rf.ReadListCtx(context.Background(), e)
	return l, err == nil, err
}

func TestRunRoundTrip(t *testing.T) {
	b := NewRunBuilder()
	if err := b.AddList(5, 0, []uint32{1, 7, 9}, []uint32{2, 1, 5}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddList(5, 1, []uint32{3}, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddList(17612, 9, []uint32{100, 200}, []uint32{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddList(6, 0, nil, nil); err != nil {
		t.Fatal(err) // empty list: skipped silently
	}
	if b.Lists() != 3 {
		t.Fatalf("Lists = %d, want 3", b.Lists())
	}
	data := b.Finalize(1, 200)
	run, err := openRunBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := run.DocRange(); first != 1 || last != 200 {
		t.Errorf("doc range = [%d,%d]", first, last)
	}
	l, ok, err := readList(run, 5, 0)
	if err != nil || !ok {
		t.Fatalf("list (5,0): %v ok=%v", err, ok)
	}
	if l.Len() != 3 || l.DocIDs[2] != 9 || l.TFs[2] != 5 {
		t.Errorf("list (5,0) = %v/%v", l.DocIDs, l.TFs)
	}
	if _, ok, _ := readList(run, 6, 0); ok {
		t.Error("empty list should be absent")
	}
	if _, ok, _ := readList(run, 99, 99); ok {
		t.Error("unknown list should be absent")
	}
}

func TestRunRejectsCorruption(t *testing.T) {
	b := NewRunBuilder()
	b.AddList(1, 0, []uint32{1}, []uint32{1})
	data := b.Finalize(1, 1)
	if _, err := openRunBytes(data[:10]); err == nil {
		t.Error("truncated header must fail")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := openRunBytes(bad); err == nil {
		t.Error("bad magic must fail")
	}
	short := append([]byte(nil), data[:len(data)-1]...)
	if _, err := openRunBytes(short); err == nil {
		t.Error("truncated blob must fail")
	}
}

// TestHostileHeadersDoNotAllocate covers the fuzzer-found
// denial-of-service inputs: headers declaring absurd counts must be
// rejected before any proportional allocation.
func TestHostileHeadersDoNotAllocate(t *testing.T) {
	// Run file claiming 4 billion entries in a bare header.
	hostile := make([]byte, runHdrSize)
	putU32 := func(off int, v uint32) {
		hostile[off] = byte(v)
		hostile[off+1] = byte(v >> 8)
		hostile[off+2] = byte(v >> 16)
		hostile[off+3] = byte(v >> 24)
	}
	putU32(0, runMagic)
	putU32(4, runVersion)
	putU32(8, 0xFFFFFFFF) // entry count
	if _, err := openRunBytes(hostile); err == nil {
		t.Error("hostile run header must be rejected")
	}

	// Entry whose Count is impossible for its Length.
	b := NewRunBuilder()
	b.AddList(1, 0, []uint32{1}, []uint32{1})
	data := b.Finalize(0, 1)
	// Count field of entry 0 lives at runHdrSize+20.
	data[runHdrSize+20] = 0xFF
	data[runHdrSize+21] = 0xFF
	// Recompute CRC so only the count check can reject.
	crc := crc32ChecksumForTest(data[runCRCFrom:])
	putU32At(data, 20, crc)
	if _, err := openRunBytes(data); err == nil {
		t.Error("impossible Count must be rejected")
	}
}

func TestRunBuilderRejectsUnsorted(t *testing.T) {
	b := NewRunBuilder()
	if err := b.AddList(1, 0, []uint32{5, 5}, []uint32{1, 1}); err == nil {
		t.Error("unsorted docIDs must fail")
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	entries := []DictEntry{
		{"-80", 0, 0},
		{"0195", 1, 0},
		{"apple", 11, 3},
		{"applic", 37 + 0*676 + 15*26 + 15, 0}, // "app"-prefixed
		{"parallel", trieIdx("parallel"), 7},
		{"paralleliz", trieIdx("paralleliz"), 8},
	}
	SortDictEntries(entries)
	var buf bytes.Buffer
	if err := WriteDictionary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if got := FrontCodedSize(entries); got != buf.Len() {
		t.Errorf("FrontCodedSize = %d, actual %d", got, buf.Len())
	}
	back, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(entries) {
		t.Fatalf("read %d entries, want %d", len(back), len(entries))
	}
	for i := range entries {
		if back[i] != entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, back[i], entries[i])
		}
	}
}

func trieIdx(s string) int32 { return int32(trie.IndexString(s)) }

// TestHostileDictionaryHeader covers the fuzzer-found OOM: a
// dictionary header claiming billions of terms over a few bytes.
func TestHostileDictionaryHeader(t *testing.T) {
	hostile := []byte("CDIF\x01\x00\x00\x00\x05apple\v\xef\x04\x03\xef")
	if _, err := ReadDictionary(bytes.NewReader(hostile)); err == nil {
		t.Error("hostile dictionary must be rejected")
	}
}

func TestDictionaryOrderEnforced(t *testing.T) {
	entries := []DictEntry{{"zebra", 5, 0}, {"apple", 5, 1}}
	var buf bytes.Buffer
	if err := WriteDictionary(&buf, entries); err == nil {
		t.Error("out-of-order dictionary must be rejected")
	}
}

func TestDictionaryFrontCodingCompresses(t *testing.T) {
	// Terms sharing long prefixes should compress well.
	var entries []DictEntry
	raw := 0
	for i := 0; i < 200; i++ {
		term := "paralleliz" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		entries = append(entries, DictEntry{term, trieIdx(term), int32(i)})
		raw += len(term)
	}
	SortDictEntries(entries)
	size := FrontCodedSize(entries)
	if size >= raw {
		t.Errorf("front-coded %d >= raw %d", size, raw)
	}
}

func TestDictionaryQuickRoundTrip(t *testing.T) {
	f := func(words [][]byte) bool {
		seen := map[string]bool{}
		var entries []DictEntry
		for i, w := range words {
			term := make([]byte, 0, len(w))
			for _, c := range w {
				term = append(term, 'a'+c%26)
			}
			if len(term) == 0 || seen[string(term)] {
				continue
			}
			seen[string(term)] = true
			entries = append(entries, DictEntry{string(term), trieIdx(string(term)), int32(i)})
		}
		SortDictEntries(entries)
		var buf bytes.Buffer
		if err := WriteDictionary(&buf, entries); err != nil {
			return false
		}
		back, err := ReadDictionary(&buf)
		if err != nil || len(back) != len(entries) {
			return false
		}
		for i := range entries {
			if back[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIndexWriterReaderEndToEnd(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "idx")
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	termColl := trieIdx("zebra")

	// Run 0: docs 0-9; run 1: docs 10-19.
	b0 := NewRunBuilder()
	b0.AddList(int(termColl), 4, []uint32{1, 5}, []uint32{2, 1})
	if err := w.WriteRun(b0, 0, 9); err != nil {
		t.Fatal(err)
	}
	b1 := NewRunBuilder()
	b1.AddList(int(termColl), 4, []uint32{12, 19}, []uint32{1, 3})
	if err := w.WriteRun(b1, 10, 19); err != nil {
		t.Fatal(err)
	}
	dict := []DictEntry{{"zebra", termColl, 4}}
	SortDictEntries(dict)
	if err := w.Finish(dict); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(dict); err == nil {
		t.Error("double Finish must fail")
	}

	r, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Terms() != 1 || len(r.Runs()) != 2 {
		t.Fatalf("Terms=%d Runs=%d", r.Terms(), len(r.Runs()))
	}
	l, err := r.Postings("zebra")
	if err != nil {
		t.Fatal(err)
	}
	wantDocs := []uint32{1, 5, 12, 19}
	if l.Len() != 4 {
		t.Fatalf("postings = %v", l.DocIDs)
	}
	for i, d := range wantDocs {
		if l.DocIDs[i] != d {
			t.Errorf("doc[%d] = %d, want %d", i, l.DocIDs[i], d)
		}
	}
	// Range query touching only run 1.
	lr, err := r.PostingsRange("zebra", 10, 19)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Len() != 2 || lr.DocIDs[0] != 12 {
		t.Errorf("range postings = %v", lr.DocIDs)
	}
	// Unknown term: empty, no error.
	empty, err := r.Postings("nosuchterm")
	if err != nil || empty.Len() != 0 {
		t.Errorf("unknown term: %v len=%d", err, empty.Len())
	}

	// Merge produces a single list with all four postings and switches
	// the reader onto the merged path.
	stats, err := r.Merge()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lists != 1 || stats.Runs != 2 || stats.FirstDoc != 1 || stats.LastDoc != 19 {
		t.Fatalf("merge stats = %+v", stats)
	}
	if !r.MergedActive() {
		t.Fatal("reader did not activate merged file after Merge")
	}
	ml, err := r.Postings("zebra")
	if err != nil {
		t.Fatal(err)
	}
	if ml.Len() != 4 || ml.TFs[3] != 3 {
		t.Fatalf("merged postings = %v/%v", ml.DocIDs, ml.TFs)
	}
	if got := r.Stats(); got.MergedHits == 0 {
		t.Fatalf("merged lookup not counted: %+v", got)
	}
	// A fresh reader trusts the sidecar and serves merged immediately.
	r2, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !r2.MergedActive() {
		t.Fatal("fresh reader did not pick up merged sidecar")
	}
	l2, err := r2.PostingsRange("zebra", 10, 19)
	if err != nil || l2.Len() != 2 || l2.DocIDs[0] != 12 {
		t.Fatalf("merged range postings = %v err=%v", l2, err)
	}
}

func TestPositionalRunRoundTrip(t *testing.T) {
	b := NewRunBuilder()
	docs := []uint32{2, 7, 9}
	tfs := []uint32{2, 1, 3}
	positions := [][]uint32{{4, 9}, {0}, {1, 5, 700}}
	if err := b.AddPositionalList(40, 3, docs, tfs, positions); err != nil {
		t.Fatal(err)
	}
	if err := b.AddList(41, 0, []uint32{1}, []uint32{1}); err != nil {
		t.Fatal(err) // mixed runs are legal
	}
	run, err := openRunBytes(b.Finalize(0, 9))
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := readList(run, 40, 3)
	if err != nil || !ok {
		t.Fatalf("positional list: %v ok=%v", err, ok)
	}
	gd, gt, gp := l.DocIDs, l.TFs, l.Positions
	for i := range docs {
		if gd[i] != docs[i] || gt[i] != tfs[i] {
			t.Fatalf("posting %d mismatch", i)
		}
		for j := range positions[i] {
			if gp[i][j] != positions[i][j] {
				t.Fatalf("position [%d][%d] = %d, want %d", i, j, gp[i][j], positions[i][j])
			}
		}
	}
	// Plain entry has nil positions.
	plain, ok, err := readList(run, 41, 0)
	if err != nil || !ok {
		t.Fatalf("plain entry: %v ok=%v", err, ok)
	}
	if plain.Positions != nil {
		t.Fatalf("plain entry decoded positions %v", plain.Positions)
	}
	// tf/position mismatch is rejected.
	bad := NewRunBuilder()
	if err := bad.AddPositionalList(1, 0, []uint32{1}, []uint32{2}, [][]uint32{{3}}); err == nil {
		t.Error("tf/positions mismatch must fail")
	}
}

func TestRunQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nLists uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewRunBuilder()
		type ref struct {
			coll int
			slot int32
			docs []uint32
			tfs  []uint32
		}
		var refs []ref
		used := map[uint64]bool{}
		for i := 0; i < int(nLists%20)+1; i++ {
			coll := rng.Intn(trie.NumCollections)
			slot := int32(rng.Intn(100))
			k := uint64(coll)<<32 | uint64(slot)
			if used[k] {
				continue
			}
			used[k] = true
			n := rng.Intn(30) + 1
			docs := make([]uint32, n)
			tfs := make([]uint32, n)
			cur := uint32(0)
			for j := 0; j < n; j++ {
				cur += uint32(rng.Intn(50)) + 1
				docs[j] = cur
				tfs[j] = uint32(rng.Intn(9)) + 1
			}
			if err := b.AddList(coll, slot, docs, tfs); err != nil {
				return false
			}
			refs = append(refs, ref{coll, slot, docs, tfs})
		}
		run, err := openRunBytes(b.Finalize(0, 1<<30))
		if err != nil {
			return false
		}
		for _, rf := range refs {
			l, ok, err := readList(run, rf.coll, rf.slot)
			if err != nil || !ok || l.Len() != len(rf.docs) {
				return false
			}
			for j := range rf.docs {
				if l.DocIDs[j] != rf.docs[j] || l.TFs[j] != rf.tfs[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
