package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// writeCompactRun builds one run-format file holding the given lists.
// lists maps (coll, slot) -> docIDs (tf 1 each).
func writeCompactRun(t *testing.T, path string, first, last uint32, lists map[[2]uint32][]uint32) {
	t.Helper()
	b := NewRunBuilder()
	for key, docs := range lists {
		tfs := make([]uint32, len(docs))
		for i := range tfs {
			tfs[i] = 1
		}
		if err := b.AddList(int(key[0]), int32(key[1]), docs, tfs); err != nil {
			t.Fatalf("AddList: %v", err)
		}
	}
	if err := os.WriteFile(path, b.Finalize(first, last), 0o644); err != nil {
		t.Fatalf("write run: %v", err)
	}
}

func TestCompactRunsRemapAndDrop(t *testing.T) {
	dir := t.TempDir()
	// Two segments holding the same two terms under different local
	// slots: term A is (7, 0) in seg1 but (7, 1) in seg2, term B the
	// reverse. The remap sends both onto union slots A->10, B->11.
	seg1 := filepath.Join(dir, "seg1.post")
	seg2 := filepath.Join(dir, "seg2.post")
	writeCompactRun(t, seg1, 0, 9, map[[2]uint32][]uint32{
		{7, 0}: {1, 3, 5}, // A
		{7, 1}: {2, 4},    // B
		{9, 0}: {0, 6, 8}, // C, only in seg1
	})
	writeCompactRun(t, seg2, 10, 19, map[[2]uint32][]uint32{
		{7, 0}: {11, 13}, // B (local slot 0 here)
		{7, 1}: {10, 12}, // A
	})
	remap1 := func(coll, slot uint32) (uint32, bool) {
		switch {
		case coll == 7 && slot == 0:
			return 10, true // A
		case coll == 7 && slot == 1:
			return 11, true // B
		case coll == 9 && slot == 0:
			return 0, true // C
		}
		return 0, false
	}
	remap2 := func(coll, slot uint32) (uint32, bool) {
		switch {
		case coll == 7 && slot == 0:
			return 11, true // B
		case coll == 7 && slot == 1:
			return 10, true // A
		}
		return 0, false
	}
	out := filepath.Join(dir, "out.post")
	deleted := map[uint32]bool{3: true, 12: true}
	stats, err := CompactRuns(context.Background(),
		// Reverse doc order on purpose: CompactRuns must sort by first doc.
		[]CompactSource{{Path: seg2, Remap: remap2}, {Path: seg1, Remap: remap1}},
		out, CompactOptions{Drop: func(d uint32) bool { return deleted[d] }})
	if err != nil {
		t.Fatalf("CompactRuns: %v", err)
	}
	if stats.Lists != 3 || stats.Runs != 2 {
		t.Fatalf("stats = %+v, want 3 lists over 2 runs", stats)
	}
	rf, err := OpenRunFile(out, nil)
	if err != nil {
		t.Fatalf("OpenRunFile: %v", err)
	}
	defer rf.Close()
	want := map[[2]uint32][]uint32{
		{7, 10}: {1, 5, 10},     // A minus doc 3, minus doc 12
		{7, 11}: {2, 4, 11, 13}, // B
		{9, 0}:  {0, 6, 8},      // C
	}
	if rf.NumLists() != len(want) {
		t.Fatalf("NumLists = %d, want %d", rf.NumLists(), len(want))
	}
	for key, docs := range want {
		e, ok := rf.Find(key[0], key[1])
		if !ok {
			t.Fatalf("list (%d,%d) missing", key[0], key[1])
		}
		l, err := rf.ReadListCtx(context.Background(), e)
		if err != nil {
			t.Fatalf("ReadList (%d,%d): %v", key[0], key[1], err)
		}
		if len(l.DocIDs) != len(docs) {
			t.Fatalf("list (%d,%d) docs = %v, want %v", key[0], key[1], l.DocIDs, docs)
		}
		for i, d := range docs {
			if l.DocIDs[i] != d {
				t.Fatalf("list (%d,%d) docs = %v, want %v", key[0], key[1], l.DocIDs, docs)
			}
		}
	}
	if first, last := rf.DocRange(); first != 0 || last != 13 {
		t.Fatalf("doc range = [%d,%d], want [0,13]", first, last)
	}
}

// A term whose every posting is tombstoned must vanish from the output
// table, which exercises the reserved-table shrink path; the shrunken
// file must still pass full CRC validation.
func TestCompactRunsShrinksFullyPurgedTerms(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg.post")
	writeCompactRun(t, seg, 0, 5, map[[2]uint32][]uint32{
		{1, 0}: {0, 2},
		{1, 1}: {1, 3}, // fully deleted below
		{2, 0}: {4, 5},
	})
	out := filepath.Join(dir, "out.post")
	stats, err := CompactRuns(context.Background(), []CompactSource{{Path: seg}}, out,
		CompactOptions{Drop: func(d uint32) bool { return d == 1 || d == 3 }})
	if err != nil {
		t.Fatalf("CompactRuns: %v", err)
	}
	if stats.Lists != 2 {
		t.Fatalf("Lists = %d, want 2 (one term fully purged)", stats.Lists)
	}
	rf, err := OpenRunFile(out, nil)
	if err != nil {
		t.Fatalf("OpenRunFile after shrink: %v", err)
	}
	defer rf.Close()
	if _, ok := rf.Find(1, 1); ok {
		t.Fatal("fully purged term still present")
	}
	if _, ok := rf.Find(1, 0); !ok {
		t.Fatal("surviving term lost")
	}
	if st, _ := os.Stat(out); st.Size() != stats.Bytes {
		t.Fatalf("file is %d bytes, stats say %d", st.Size(), stats.Bytes)
	}
}

func TestCompactRunsCancellation(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg.post")
	lists := make(map[[2]uint32][]uint32)
	for s := uint32(0); s < 500; s++ {
		lists[[2]uint32{1, s}] = []uint32{s, s + 1000}
	}
	writeCompactRun(t, seg, 0, 1499, lists)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(dir, "out.post")
	if _, err := CompactRuns(ctx, []CompactSource{{Path: seg}}, out, CompactOptions{}); err == nil {
		t.Fatal("cancelled compaction succeeded")
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("cancelled compaction left an output file")
	}
	if _, err := os.Stat(out + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("cancelled compaction left a temp file")
	}
}

func TestCompactRunsRejectsUnknownSlot(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, "seg.post")
	writeCompactRun(t, seg, 0, 1, map[[2]uint32][]uint32{{1, 0}: {0}})
	_, err := CompactRuns(context.Background(),
		[]CompactSource{{Path: seg, Remap: func(_, _ uint32) (uint32, bool) { return 0, false }}},
		filepath.Join(dir, "out.post"), CompactOptions{})
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("err = %v, want ErrCorruptIndex", err)
	}
}

func TestPostingsEncodedReportsCompressedBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := NewRunBuilder()
	docs := []uint32{1, 2, 3, 4, 5}
	tfs := []uint32{1, 1, 1, 1, 1}
	if err := b.AddList(11, 0, docs, tfs); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(b, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish([]DictEntry{{Term: "abc", Collection: 11, Slot: 0}}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	l, enc, err := r.PostingsEncodedCtx(context.Background(), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 5 {
		t.Fatalf("got %d postings, want 5", l.Len())
	}
	// Five (gap,tf) varbyte pairs = 10 bytes: far below the decoded
	// in-memory estimate, which is the point of charging encoded size.
	if enc != 10 {
		t.Fatalf("encoded size = %d, want 10", enc)
	}
	// A cache hit must report the same size.
	if _, enc2, err := r.PostingsEncodedCtx(context.Background(), "abc"); err != nil || enc2 != enc {
		t.Fatalf("cache-hit encoded size = %d (%v), want %d", enc2, err, enc)
	}
	if _, enc3, err := r.PostingsEncodedCtx(context.Background(), "missing"); err != nil || enc3 != 0 {
		t.Fatalf("missing term encoded size = %d (%v), want 0", enc3, err)
	}
}
