package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastinvert/internal/postings"
	"fastinvert/internal/telemetry"
	"fastinvert/internal/trie"
)

// buildMergedTestDir writes a small multi-run index (one positional
// list included) and returns its directory and terms.
func buildMergedTestDir(t testing.TB) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	terms := []string{"alpha", "beta", "gamma", "delta"}
	var dict []DictEntry
	for slot, term := range terms {
		dict = append(dict, DictEntry{
			Term:       term,
			Collection: int32(trie.IndexString(term)),
			Slot:       int32(slot),
		})
	}
	for r := 0; r < 3; r++ {
		b := NewRunBuilder()
		base := uint32(r * 100)
		for slot, term := range terms {
			docs := []uint32{base + uint32(slot), base + uint32(slot) + 10}
			tfs := []uint32{1, 2}
			if slot == 3 {
				// One positional list per run exercises the positional
				// merge path.
				if err := b.AddPositionalList(trie.IndexString(term), int32(slot),
					docs, tfs, [][]uint32{{1}, {2, 5}}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := b.AddList(trie.IndexString(term), int32(slot), docs, tfs); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.WriteRun(b, base, base+99); err != nil {
			t.Fatal(err)
		}
	}
	SortDictEntries(dict)
	if err := w.Finish(dict); err != nil {
		t.Fatal(err)
	}
	return dir, terms
}

// mergeDir merges an index directory and closes the merging reader.
func mergeDir(t testing.TB, dir string) *MergeStats {
	t.Helper()
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	stats, err := idx.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func assertSameList(t *testing.T, label string, got, want *postings.List) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d postings, want %d", label, got.Len(), want.Len())
	}
	for i := range want.DocIDs {
		if got.DocIDs[i] != want.DocIDs[i] || got.TFs[i] != want.TFs[i] {
			t.Fatalf("%s: posting %d = (%d,%d), want (%d,%d)", label, i,
				got.DocIDs[i], got.TFs[i], want.DocIDs[i], want.TFs[i])
		}
	}
	if want.Positional() != got.Positional() {
		t.Fatalf("%s: positional mismatch", label)
	}
	for i := range want.Positions {
		if len(got.Positions[i]) != len(want.Positions[i]) {
			t.Fatalf("%s: positions %d mismatch", label, i)
		}
	}
}

// TestMergeLeavesNoTempFiles: the atomic write must not leave temp
// files behind on success.
// TestMergeWorkersDeterministic merges identical indexes with several
// worker counts and requires bit-identical merged files: the sharded
// parallel merge must never let scheduling reach the output bytes.
func TestMergeWorkersDeterministic(t *testing.T) {
	mergeWith := func(workers int) ([]byte, []byte) {
		dir, _ := buildMergedTestDir(t)
		idx, err := OpenIndexWith(dir, ReaderOptions{MergeWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Merge(); err != nil {
			t.Fatal(err)
		}
		idx.Close()
		post, err := os.ReadFile(filepath.Join(dir, mergedFileName))
		if err != nil {
			t.Fatal(err)
		}
		side, err := os.ReadFile(filepath.Join(dir, mergedSidecarName))
		if err != nil {
			t.Fatal(err)
		}
		return post, side
	}
	wantPost, wantSide := mergeWith(1)
	for _, workers := range []int{2, 3, 8} {
		gotPost, gotSide := mergeWith(workers)
		if !bytes.Equal(gotPost, wantPost) {
			t.Fatalf("merged.post differs between 1 and %d workers", workers)
		}
		if !bytes.Equal(gotSide, wantSide) {
			t.Fatalf("merged.json differs between 1 and %d workers", workers)
		}
	}
}

func TestMergeLeavesNoTempFiles(t *testing.T) {
	dir, _ := buildMergedTestDir(t)
	mergeDir(t, dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, mergedSidecarName)); err != nil {
		t.Fatalf("sidecar missing: %v", err)
	}
}

// TestTruncatedMergedFallsBack is the standalone regression for the
// torn-write bug: a truncated merged.post (as a crashed non-atomic
// write would leave) must surface a typed error from Verify and must
// NOT be served — queries fall back to per-run assembly with correct
// results.
func TestTruncatedMergedFallsBack(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	mergeDir(t, dir)

	mp := filepath.Join(dir, mergedFileName)
	st, err := os.Stat(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(mp, st.Size()/2); err != nil {
		t.Fatal(err)
	}

	if _, err := Verify(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Verify of truncated merged = %v, want ErrCorruptIndex", err)
	}
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.MergedActive() {
		t.Fatal("truncated merged file must not be active")
	}
	if err := idx.MergedErr(); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("MergedErr = %v, want ErrCorruptIndex", err)
	}
	for _, term := range terms {
		l, err := idx.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		if l.Len() != 6 { // 2 postings x 3 runs
			t.Fatalf("fallback postings for %q = %v", term, l.DocIDs)
		}
	}
	if st := idx.Stats(); st.RunFallbacks == 0 || st.MergedHits != 0 {
		t.Fatalf("stats after fallback = %+v", st)
	}
}

// TestBitFlippedMergedFallsBack: single-byte corruption anywhere past
// the header fails the CRC and the reader degrades gracefully.
func TestBitFlippedMergedFallsBack(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	mergeDir(t, dir)

	mp := filepath.Join(dir, mergedFileName)
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(mp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Verify(dir); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("Verify of bit-flipped merged = %v, want ErrCorruptIndex", err)
	}
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.MergedActive() {
		t.Fatal("bit-flipped merged file must not be active")
	}
	l, err := idx.Postings(terms[0])
	if err != nil || l.Len() != 6 {
		t.Fatalf("fallback postings = %v err=%v", l, err)
	}
}

// TestRunFallbackReasons: a lookup assembled from the runs says why —
// the index was never merged, or a read of the active merged file
// failed under the query — in its merge span's note, and the second
// kind is counted apart.
func TestRunFallbackReasons(t *testing.T) {
	mergeNote := func(idx *IndexReader, term string) string {
		t.Helper()
		tr := telemetry.NewRequestTrace("test")
		l, err := idx.PostingsCtx(telemetry.ContextWithTrace(context.Background(), tr), term)
		if err != nil || l.Len() != 6 {
			t.Fatalf("postings for %q = %v err=%v", term, l, err)
		}
		tr.Finish(0, "")
		for _, sp := range tr.Snapshot().Spans {
			if sp.Stage == telemetry.ReqStageMerge {
				return sp.Note
			}
		}
		return ""
	}

	dir, terms := buildMergedTestDir(t)
	unmerged, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	if note := mergeNote(unmerged, terms[0]); note != "run-fallback:unmerged" {
		t.Errorf("unmerged lookup noted %q", note)
	}
	if st := unmerged.Stats(); st.RunFallbacks != 1 || st.MergedReadErrors != 0 {
		t.Errorf("unmerged stats = %+v", st)
	}
	unmerged.Close()

	mergeDir(t, dir)
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if note := mergeNote(idx, terms[0]); note != "" {
		t.Errorf("merged lookup has a merge span noted %q", note)
	}
	// The file goes bad after it passed validation at open.
	if err := os.Truncate(filepath.Join(dir, mergedFileName), runHdrSize); err != nil {
		t.Fatal(err)
	}
	if note := mergeNote(idx, terms[1]); note != "run-fallback:merged-read-error" {
		t.Errorf("lookup over a truncated merged file noted %q", note)
	}
	if tb, err := idx.BlockPostingsCtx(context.Background(), terms[2]); tb != nil || err != nil {
		t.Errorf("block view over a truncated merged file = (%v, %v), want unavailable", tb, err)
	}
	if st := idx.Stats(); st.MergedHits != 1 || st.RunFallbacks != 1 || st.MergedReadErrors != 1 {
		t.Errorf("stats after a failed merged read = %+v", st)
	}
}

// TestMergedWithoutSidecarIgnored: a bare merged.post with no sidecar
// is not trusted and not an error.
func TestMergedWithoutSidecarIgnored(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	mergeDir(t, dir)
	if err := os.Remove(filepath.Join(dir, mergedSidecarName)); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.MergedActive() {
		t.Fatal("merged file without sidecar must not be trusted")
	}
	if err := idx.MergedErr(); err != nil {
		t.Fatalf("missing sidecar is not corruption, got %v", err)
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if l, err := idx.Postings(terms[0]); err != nil || l.Len() != 6 {
		t.Fatalf("postings = %v err=%v", l, err)
	}
}

// TestMergedSidecarOtherVersion: a sidecar stamped with any version but
// the current one is a mismatch like any other — reported by MergedErr
// and Verify, never a silent fall back to per-run assembly.
func TestMergedSidecarOtherVersion(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	mergeDir(t, dir)
	scPath := filepath.Join(dir, mergedSidecarName)
	raw, err := os.ReadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []string{"1", "2", "99"} {
		bumped := strings.Replace(string(raw), `"version": 3`, `"version": `+ver, 1)
		if bumped == string(raw) {
			t.Fatalf("sidecar version field not found in %s", raw)
		}
		if err := os.WriteFile(scPath, []byte(bumped), 0o644); err != nil {
			t.Fatal(err)
		}
		idx, err := OpenIndex(dir)
		if err != nil {
			t.Fatal(err)
		}
		if idx.MergedActive() {
			t.Fatalf("version %s: sidecar must not be trusted", ver)
		}
		if err := idx.MergedErr(); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("version %s: MergedErr = %v, want ErrCorruptIndex", ver, err)
		}
		if l, err := idx.Postings(terms[0]); err != nil || l.Len() != 6 {
			t.Fatalf("version %s: postings = %v err=%v", ver, l, err)
		}
		idx.Close()
		if _, err := Verify(dir); !errors.Is(err, ErrCorruptIndex) {
			t.Fatalf("version %s: Verify = %v, want ErrCorruptIndex", ver, err)
		}
	}
}

// TestRemergeIsIdempotent: merging an already-merged index rewrites
// the file and keeps serving correct results.
func TestRemergeIsIdempotent(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	s1 := mergeDir(t, dir)
	s2 := mergeDir(t, dir)
	if s1.Lists != s2.Lists || s1.Bytes != s2.Bytes {
		t.Fatalf("re-merge changed output: %+v vs %+v", s1, s2)
	}
	idx, err := OpenIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if l, err := idx.Postings(terms[1]); err != nil || l.Len() != 6 {
		t.Fatalf("postings after re-merge = %v err=%v", l, err)
	}
}

// TestListCacheEviction drives the reader cache with a budget smaller
// than the working set and checks the byte bound holds while queries
// stay correct.
func TestListCacheEviction(t *testing.T) {
	dir, terms := buildMergedTestDir(t)
	const budget = 400 // a couple of decoded lists
	idx, err := OpenIndexWith(dir, ReaderOptions{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	for round := 0; round < 4; round++ {
		for _, term := range terms {
			l, err := idx.Postings(term)
			if err != nil {
				t.Fatal(err)
			}
			if l.Len() != 6 {
				t.Fatalf("postings for %q = %v", term, l.DocIDs)
			}
		}
	}
	st := idx.Stats()
	if st.CacheBytes > budget {
		t.Fatalf("cache holds %d bytes, budget %d", st.CacheBytes, budget)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("expected evictions under budget pressure: %+v", st)
	}
	if st.ListBytesRead == 0 {
		t.Fatal("list bytes read not counted")
	}
}

// TestListCacheUnit exercises the LRU directly: budget enforcement,
// hit/miss accounting, oversized rejection, purge.
func TestListCacheUnit(t *testing.T) {
	c := newListCache(300)
	mk := func(n int) *postings.List {
		l := &postings.List{}
		for i := 0; i < n; i++ {
			l.DocIDs = append(l.DocIDs, uint32(i))
			l.TFs = append(l.TFs, 1)
		}
		return l
	}
	f := &RunFile{}
	k := func(i int) listKey { return listKey{file: f, coll: 1, slot: uint32(i)} }

	if _, ok := c.get(k(0)); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(k(0), mk(10)) // 72+80 = 152 bytes
	if _, ok := c.get(k(0)); !ok {
		t.Fatal("miss after put")
	}
	c.put(k(1), mk(10)) // 304 total > 300: evicts k(0)
	if _, ok := c.get(k(0)); ok {
		t.Fatal("k0 should have been evicted")
	}
	if c.evictions.Load() == 0 {
		t.Fatal("eviction not counted")
	}
	c.put(k(2), mk(1000)) // larger than the whole budget: rejected
	if _, ok := c.get(k(2)); ok {
		t.Fatal("oversized list must not be admitted")
	}
	bytes, entries := c.occupancy()
	if bytes > 300 || entries != 1 {
		t.Fatalf("occupancy = %d bytes / %d entries", bytes, entries)
	}
	c.purge()
	if bytes, entries := c.occupancy(); bytes != 0 || entries != 0 {
		t.Fatalf("purge left %d bytes / %d entries", bytes, entries)
	}
}

// TestCorruptCountsDoNotOverAllocate is the regression for the
// over-allocation bug: tiny files whose headers claim huge element
// counts must fail typed, not allocate gigabytes.
func TestCorruptCountsDoNotOverAllocate(t *testing.T) {
	// doclens: 8-byte file claiming 2^32-1 entries.
	lens := make([]byte, 8)
	putU32At(lens, 0, docLensMagic)
	putU32At(lens, 4, 0xFFFFFFFF)
	if _, err := parseDocLens(lens); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("parseDocLens huge count = %v, want ErrCorruptIndex", err)
	}

	// doctable: 12-byte file claiming 2^31 docs.
	table := make([]byte, 12)
	putU32At(table, 0, docTableMagic)
	putU32At(table, 4, 0)
	putU32At(table, 8, 1<<31)
	if _, _, err := parseDocTable(table); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("parseDocTable huge count = %v, want ErrCorruptIndex", err)
	}
	putU32At(table, 4, 0xFFFFFFF0)
	putU32At(table, 8, 0)
	if _, _, err := parseDocTable(table); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("parseDocTable huge names = %v, want ErrCorruptIndex", err)
	}

	// run file: header claiming more table entries than the file holds.
	b := NewRunBuilder()
	b.AddList(1, 0, []uint32{1}, []uint32{1})
	data := b.Finalize(1, 1)
	putU32At(data, 8, 0x40000000)
	if _, err := openRunBytes(data); !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("run with huge nLists = %v, want ErrCorruptIndex", err)
	}
}

// TestDocMapValidation: hostile docmap rows (path traversal, absolute
// paths, inverted ranges) are rejected typed.
func TestDocMapValidation(t *testing.T) {
	cases := []string{
		`[{"file":"../../etc/passwd","first_doc":0,"last_doc":1,"lists":1,"bytes":1}]`,
		`[{"file":"/etc/passwd","first_doc":0,"last_doc":1,"lists":1,"bytes":1}]`,
		`[{"file":"","first_doc":0,"last_doc":1,"lists":1,"bytes":1}]`,
		`[{"file":"run-00000.post","first_doc":9,"last_doc":3,"lists":1,"bytes":1}]`,
		`[{"file":"run-00000.post","first_doc":0,"last_doc":1,"lists":-4,"bytes":1}]`,
		`{not json`,
	}
	for _, c := range cases {
		if _, err := parseDocMap([]byte(c)); !errors.Is(err, ErrCorruptIndex) {
			t.Errorf("parseDocMap(%s) = %v, want ErrCorruptIndex", c, err)
		}
	}
	good := `[{"file":"run-00000.post","first_doc":0,"last_doc":9,"lists":2,"bytes":100}]`
	if _, err := parseDocMap([]byte(good)); err != nil {
		t.Errorf("parseDocMap(valid) = %v", err)
	}
}
