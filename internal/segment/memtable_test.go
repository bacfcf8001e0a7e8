package segment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
	"fastinvert/internal/store"
	"fastinvert/internal/trie"
)

// indexRunSeal is the memtable's former write path, kept as the oracle
// for its seal: cpuindexer.IndexRun fed one document per run (groups in
// collection order), every list into a RunBuilder in (collection, slot)
// order, and the dictionary walked out of the B-trees.
func indexRunSeal(t *testing.T, docs [][]byte, firstDoc uint32, positional bool, sel encoding.Selector) ([]byte, []store.DictEntry) {
	t.Helper()
	ix := cpuindexer.New()
	p := parser.New(nil)
	p.Positional = positional
	blk := parser.NewBlock(0)
	for i, d := range docs {
		blk.Reset()
		p.ParseDoc(0, d, blk)
		colls := make([]int, 0, len(blk.Groups))
		for c := range blk.Groups {
			colls = append(colls, c)
		}
		sort.Ints(colls)
		groups := make([]*parser.Group, len(colls))
		for j, c := range colls {
			groups[j] = blk.Groups[c]
		}
		if _, err := ix.IndexRun(groups, firstDoc+uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	b := store.NewRunBuilderCodec(sel)
	b.EnableBlocks()
	var dict []store.DictEntry
	for _, coll := range ix.Collections() {
		st := ix.Store(coll)
		for slot := 0; slot < st.NumSlots(); slot++ {
			l := st.List(int32(slot))
			var err error
			if l.Positional() {
				err = b.AddPositionalList(coll, int32(slot), l.DocIDs, l.TFs, l.Positions)
			} else {
				err = b.AddList(coll, int32(slot), l.DocIDs, l.TFs)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		ix.WalkDictionary(coll, func(stripped []byte, slot int32) bool {
			dict = append(dict, store.DictEntry{
				Term: string(trie.Restore(coll, stripped)), Collection: int32(coll), Slot: slot})
			return true
		})
	}
	store.SortDictEntries(dict)
	return b.Finalize(firstDoc, firstDoc+uint32(len(docs))-1), dict
}

// sealDocs seals docs through a memtable whose first document is
// firstDoc.
func sealDocs(t *testing.T, docs [][]byte, firstDoc uint32, positional bool, sel encoding.Selector) ([]byte, []store.DictEntry) {
	t.Helper()
	mt := newMemtable(firstDoc, 0)
	p := parser.New(nil)
	p.Positional = positional
	blk := parser.NewBlock(0)
	for i, d := range docs {
		blk.Reset()
		p.ParseDoc(0, d, blk)
		if err := mt.add(firstDoc+uint32(i), blk); err != nil {
			t.Fatal(err)
		}
	}
	data, dict, _, err := mt.seal(sel, firstDoc+uint32(len(docs))-1)
	if err != nil {
		t.Fatal(err)
	}
	return data, dict
}

// sealOracleDocs is a collection that exercises every shape a sealed
// list can take: "common" in all 400 documents (a blocked list, with
// repeated occurrences for TF > 1), mid-length and singleton lists,
// an empty and a stop-word-only document, and terms spread over every
// kind of trie collection — digits, one- and two-letter words, and
// three-letter prefixes across the alphabet.
func sealOracleDocs() [][]byte {
	var docs [][]byte
	for d := 0; d < 400; d++ {
		words := []string{"common"}
		switch d {
		case 17:
			docs = append(docs, nil)
			continue
		case 18:
			docs = append(docs, []byte("the and of to"))
			continue
		}
		if d%4 == 0 {
			words = append(words, "common", "frequent", "common")
		}
		if d%9 == 0 {
			words = append(words, fmt.Sprintf("rare%dx", d))
		}
		words = append(words,
			fmt.Sprintf("%c%cword", 'a'+d%26, 'a'+d/26%26),
			fmt.Sprintf("%d", d%50),
			string(rune('b'+d%24)),
			fmt.Sprintf("q%c", 'a'+d%26))
		docs = append(docs, []byte(strings.Join(words, " ")))
	}
	return docs
}

// TestMemtableSealMatchesIndexRun pins the memtable's sealed bytes and
// dictionary to the batch indexer's: a term table assigning slots in
// first-appearance order writes the very run that per-document
// IndexRun calls and a B-tree walk wrote.
func TestMemtableSealMatchesIndexRun(t *testing.T) {
	docs := sealOracleDocs()
	sel, err := encoding.SelectorFor("auto")
	if err != nil {
		t.Fatal(err)
	}
	for _, positional := range []bool{false, true} {
		for _, firstDoc := range []uint32{0, 1000} {
			t.Run(fmt.Sprintf("positional=%v/first=%d", positional, firstDoc), func(t *testing.T) {
				want, wantDict := indexRunSeal(t, docs, firstDoc, positional, sel)
				got, gotDict := sealDocs(t, docs, firstDoc, positional, sel)
				if !reflect.DeepEqual(gotDict, wantDict) {
					t.Fatalf("dictionary: %d entries, want %d", len(gotDict), len(wantDict))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("sealed run: %d bytes, want %d, differing", len(got), len(want))
				}
				path := filepath.Join(t.TempDir(), "seal.post")
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				rf, err := store.OpenRunFile(path, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer rf.Close()
				colls, blocked := map[uint32]bool{}, 0
				for _, e := range rf.Entries() {
					colls[e.Collection] = true
					if e.Flags&store.FlagBlocks != 0 {
						blocked++
					}
				}
				if len(colls) < 60 || (!positional && blocked == 0) {
					t.Fatalf("oracle collection too narrow: %d collections, %d blocked lists", len(colls), blocked)
				}
			})
		}
	}
}

// unionDictReference is the union dictionary as compaction built it
// before the k-way merge: sort the concatenation, number each distinct
// term per collection, and look every segment's entries up by term.
func unionDictReference(segs []*segment) ([]store.DictEntry, []map[uint64]uint32) {
	var all []store.DictEntry
	for _, s := range segs {
		all = append(all, s.dict...)
	}
	store.SortDictEntries(all)
	type termKey struct {
		coll int32
		term string
	}
	slotOf := make(map[termKey]uint32, len(all))
	var union []store.DictEntry
	curColl := int32(-1)
	var next uint32
	for i, e := range all {
		if i > 0 && all[i-1].Collection == e.Collection && all[i-1].Term == e.Term {
			continue
		}
		if e.Collection != curColl {
			curColl = e.Collection
			next = 0
		}
		slotOf[termKey{e.Collection, e.Term}] = next
		union = append(union, store.DictEntry{Term: e.Term, Collection: e.Collection, Slot: int32(next)})
		next++
	}
	remaps := make([]map[uint64]uint32, len(segs))
	for i, s := range segs {
		mp := make(map[uint64]uint32, len(s.dict))
		for _, e := range s.dict {
			mp[uint64(uint32(e.Collection))<<32|uint64(uint32(e.Slot))] = slotOf[termKey{e.Collection, e.Term}]
		}
		remaps[i] = mp
	}
	return union, remaps
}

// TestUnionDictMatchesMapReference compacts segments with overlapping
// and disjoint vocabularies — one of them a compacted segment whose
// slot space has gaps where a purge dropped terms — and requires the
// merged union, every remapped slot, and the compacted file's bytes to
// equal the map-based reference's.
func TestUnionDictMatchesMapReference(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	docs := sealOracleDocs()
	add := func(lo, hi int) {
		for _, d := range docs[lo:hi] {
			if _, err := m.AddDocument(d); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 100)
	add(100, 180)
	for doc := uint32(0); doc < 180; doc += 3 {
		if err := m.Delete(doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	add(180, 300)
	add(300, 400)
	v, err := m.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer v.release()
	if len(v.segs) != 3 {
		t.Fatalf("%d segments, want 3", len(v.segs))
	}

	union, remaps, err := unionDict(v.segs)
	if err != nil {
		t.Fatal(err)
	}
	wantUnion, wantRemaps := unionDictReference(v.segs)
	if !reflect.DeepEqual(union, wantUnion) {
		t.Fatalf("union: %d entries, want %d", len(union), len(wantUnion))
	}
	gaps := 0
	for i, s := range v.segs {
		for _, e := range s.dict {
			got, ok := remaps[i].remap(uint32(e.Collection), uint32(e.Slot))
			want := wantRemaps[i][uint64(uint32(e.Collection))<<32|uint64(uint32(e.Slot))]
			if !ok || got != want {
				t.Fatalf("segment %d: remap(%d,%d) = %d,%v, want %d", i, e.Collection, e.Slot, got, ok, want)
			}
		}
		for _, n := range remaps[i].slots {
			if n == 0 {
				gaps++
			}
		}
		if _, ok := remaps[i].remap(uint32(trie.NumCollections), 0); ok {
			t.Fatal("remap accepted a collection out of range")
		}
	}
	if gaps == 0 {
		t.Fatal("no segment has a slot gap; the purge did not exercise the sparse case")
	}

	compact := func(name string, remap func(i int) func(coll, slot uint32) (uint32, bool)) []byte {
		sources := make([]store.CompactSource, len(v.segs))
		for i, s := range v.segs {
			sources[i] = store.CompactSource{Path: filepath.Join(dir, s.meta.File), Remap: remap(i)}
		}
		out := filepath.Join(t.TempDir(), name)
		if _, err := store.CompactRuns(context.Background(), sources, out, store.CompactOptions{
			Codec: "auto", Drop: m.tomb.Load().has}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	got := compact("merge", func(i int) func(coll, slot uint32) (uint32, bool) { return remaps[i].remap })
	want := compact("reference", func(i int) func(coll, slot uint32) (uint32, bool) {
		return func(coll, slot uint32) (uint32, bool) {
			n, ok := wantRemaps[i][uint64(coll)<<32|uint64(slot)]
			return n, ok
		}
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("compacted file: %d bytes, reference %d, differing", len(got), len(want))
	}
}
