package store

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// layoutList is one partial list of one run of the layout tests.
type layoutList struct {
	coll      int
	slot      int32
	docs, tfs []uint32
	positions [][]uint32
}

func (l layoutList) key() uint64 { return uint64(l.coll)<<32 | uint64(uint32(l.slot)) }

// layoutRuns generates nRuns runs over a shared key space of nColls
// collections: every run holds a random two thirds of the keys, a few
// lists long enough for the blocked layout, one collection positional.
// Run r covers documents [r*10000, r*10000+9999].
func layoutRuns(nRuns, nColls int) [][]layoutList {
	rng := rand.New(rand.NewSource(5))
	runs := make([][]layoutList, nRuns)
	for r := range runs {
		for coll := 0; coll < nColls; coll++ {
			for slot := 0; slot < 1+coll%7; slot++ {
				if rng.Intn(3) == 0 {
					continue
				}
				n := 1 + rng.Intn(6)
				if coll%11 == 0 && slot == 0 {
					n = 300 + rng.Intn(50)
				}
				l := layoutList{coll: coll, slot: int32(slot)}
				doc := uint32(r * 10000)
				for i := 0; i < n; i++ {
					doc += 1 + uint32(rng.Intn(20))
					l.docs = append(l.docs, doc)
					l.tfs = append(l.tfs, 1+uint32(rng.Intn(4)))
					if coll == 3 {
						l.tfs[i] = 2
						l.positions = append(l.positions, []uint32{uint32(i), uint32(i + 9)})
					}
				}
				runs[r] = append(runs[r], l)
			}
		}
	}
	return runs
}

// writeLayoutIndex writes the runs, each with its lists in the order
// arrange leaves them and gap unreferenced bytes after every list, as
// an index directory.
func writeLayoutIndex(t testing.TB, runs [][]layoutList, gap int, arrange func([]layoutList)) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for r, lists := range runs {
		lists = slices.Clone(lists)
		arrange(lists)
		b := NewRunBuilder()
		for _, l := range lists {
			if l.positions != nil {
				err = b.AddPositionalList(l.coll, l.slot, l.docs, l.tfs, l.positions)
			} else {
				err = b.AddList(l.coll, l.slot, l.docs, l.tfs)
			}
			if err != nil {
				t.Fatal(err)
			}
			b.blob = append(b.blob, bytes.Repeat([]byte{0xA5}, gap)...)
		}
		if err := w.WriteRun(b, uint32(r*10000), uint32(r*10000+9999)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

// byKey orders lists by merge key.
func byKey(lists []layoutList) {
	slices.SortFunc(lists, func(a, b layoutList) int { return cmp.Compare(a.key(), b.key()) })
}

// fourRegions lays lists down the way a build's flush does: one
// key-ordered region per indexer, each indexer owning the collections
// the assignment gave it.
func fourRegions(lists []layoutList) {
	byKey(lists)
	slices.SortStableFunc(lists, func(a, b layoutList) int { return a.coll%4 - b.coll%4 })
}

// TestMergeAnyRunLayout: what a merge writes depends on the lists and
// not on where a run's writer put them. The same lists laid down in
// key order, in a build's four regions, backwards, and shuffled with
// unreferenced bytes between them merge to the same merged.post under
// any worker count, and in the two layouts writers produce the merge
// takes at most one positioned read per shard, run and region.
func TestMergeAnyRunLayout(t *testing.T) {
	const nRuns = 6
	runs := layoutRuns(nRuns, 60)
	keys := map[uint64]bool{}
	var listBytes int64
	for _, lists := range runs {
		for _, l := range lists {
			keys[l.key()] = true
		}
	}
	shuffle := func(lists []layoutList) {
		rand.New(rand.NewSource(int64(len(lists)))).Shuffle(len(lists), func(i, j int) {
			lists[i], lists[j] = lists[j], lists[i]
		})
	}
	var want []byte
	for _, layout := range []struct {
		name    string
		gap     int
		regions int // 0: no bound on reads claimed
		arrange func([]layoutList)
	}{
		{"ordered", 0, 1, byKey},
		{"four-region", 0, 4, fourRegions},
		{"reversed", 0, 0, func(l []layoutList) { byKey(l); slices.Reverse(l) }},
		{"shuffled-gaps", 37, 0, shuffle},
		{"shuffled-wide-gaps", extentGap + 1, 0, shuffle},
	} {
		for _, workers := range []int{1, 2, 5} {
			name := fmt.Sprintf("%s/workers=%d", layout.name, workers)
			dir := writeLayoutIndex(t, runs, layout.gap, layout.arrange)
			idx, err := OpenIndexWith(dir, ReaderOptions{MergeWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := idx.Merge()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if listBytes == 0 {
				for _, rm := range idx.Runs() {
					rf, err := idx.runFile(rm)
					if err != nil {
						t.Fatal(err)
					}
					for _, e := range rf.entries {
						listBytes += int64(e.Length)
					}
				}
			}
			idx.Close()
			got, err := os.ReadFile(filepath.Join(dir, mergedFileName))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: merged.post differs from the key-ordered serial merge", name)
			}
			if stats.Lists != len(keys) || stats.Runs != nRuns {
				t.Errorf("%s: %d lists from %d runs, want %d from %d", name, stats.Lists, stats.Runs, len(keys), nRuns)
			}
			if stats.ReadBytes < listBytes {
				t.Errorf("%s: read %d bytes of %d list bytes", name, stats.ReadBytes, listBytes)
			}
			if layout.regions == 0 {
				continue
			}
			shards := int64(4 * workers)
			if bound := shards * nRuns * int64(layout.regions); stats.ReadCalls > bound {
				t.Errorf("%s: %d reads, bound %d shards x %d runs x %d regions = %d",
					name, stats.ReadCalls, shards, nRuns, layout.regions, bound)
			}
			// Back to back in key order, a shard's lists are one extent
			// with nothing else in it. (Regions this small lie within
			// extentGap of each other, so their extents join across
			// other shards' bytes.)
			if layout.regions == 1 && stats.ReadBytes != listBytes {
				t.Errorf("%s: read %d bytes, the lists are %d", name, stats.ReadBytes, listBytes)
			}
		}
	}
}

// TestRunRejectsDuplicateKey: a table naming one (collection, slot)
// twice is corrupt at open. It used to open — Find reached only the
// second copy — and the merge then left every later list of the run
// out of its shard without an error.
func TestRunRejectsDuplicateKey(t *testing.T) {
	b := NewRunBuilder()
	for slot := int32(0); slot < 64; slot++ {
		if err := b.AddList(9, slot, []uint32{uint32(slot) + 1}, []uint32{1}); err != nil {
			t.Fatal(err)
		}
		if slot == 15 {
			if err := b.AddList(9, slot, []uint32{100}, []uint32{1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := openRunBytes(b.Finalize(1, 100)); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("open of a run with a duplicate key = %v, want ErrCorruptRun", err)
	}

	// Through an index: the merge refuses the run, and says so.
	dir := t.TempDir()
	w, err := NewIndexWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRun(b, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(nil); err != nil {
		t.Fatal(err)
	}
	idx, err := OpenIndexWith(dir, ReaderOptions{MergeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if stats, err := idx.Merge(); !errors.Is(err, ErrCorruptRun) {
		t.Fatalf("merge over a run with a duplicate key = %+v, %v; want ErrCorruptRun", stats, err)
	}
}

// TestMergeNeverDropsAList: the merge takes one list per key from each
// input, so two lists of one input on one key — which a remap that is
// not one-to-one produces from a sound file — must stop it, not shorten
// its output.
func TestMergeNeverDropsAList(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "seg.post")
	lists := map[[2]uint32][]uint32{}
	for slot := uint32(0); slot < 64; slot++ {
		lists[[2]uint32{4, slot}] = []uint32{slot + 1}
	}
	writeCompactRun(t, src, 1, 64, lists)
	out := filepath.Join(dir, "out.post")

	fold := func(coll, slot uint32) (uint32, bool) { return slot / 2, true }
	_, err := CompactRuns(context.Background(), []CompactSource{{Path: src, Remap: fold}}, out, CompactOptions{Workers: 1})
	if !errors.Is(err, ErrCorruptIndex) {
		t.Fatalf("compaction through a two-to-one remap = %v, want ErrCorruptIndex", err)
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Errorf("refused compaction left %s behind", out)
	}

	// One-to-one, in any order: every list comes out.
	flip := func(coll, slot uint32) (uint32, bool) { return 63 - slot, true }
	stats, err := CompactRuns(context.Background(), []CompactSource{{Path: src, Remap: flip}}, out, CompactOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lists != 64 {
		t.Fatalf("compacted %d of 64 lists", stats.Lists)
	}
}

// TestMergeStretches: the merge's one sorting routine, on the inputs
// it meets (sorted, a few stretches, reversed, shuffled, duplicates)
// and the small ones where pairing has an odd stretch left over.
func TestMergeStretches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	id := func(k uint64) uint64 { return k }
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1001} {
		for _, stretches := range []int{1, 2, 3, 4, 5, 12, n} {
			s := make([]uint64, n)
			for i := range s {
				s[i] = uint64(rng.Intn(2*n + 1))
			}
			// Sort each of the stretches; stretches == n leaves it shuffled.
			for i := 0; i < stretches && stretches < n; i++ {
				slices.Sort(s[i*n/stretches : (i+1)*n/stretches])
			}
			want := slices.Clone(s)
			slices.Sort(want)
			if got := mergeStretches(s, id); !slices.Equal(got, want) {
				t.Fatalf("n=%d stretches=%d: not sorted", n, stretches)
			}
		}
	}
	// Stable: equal keys keep their order.
	type kv struct{ k, v uint64 }
	s := []kv{{2, 0}, {5, 1}, {1, 2}, {2, 3}, {5, 4}, {0, 5}, {2, 6}}
	got := mergeStretches(s, func(e kv) uint64 { return e.k })
	want := []kv{{0, 5}, {1, 2}, {2, 0}, {2, 3}, {2, 6}, {5, 1}, {5, 4}}
	if !slices.Equal(got, want) {
		t.Fatalf("stable merge = %v, want %v", got, want)
	}
}
