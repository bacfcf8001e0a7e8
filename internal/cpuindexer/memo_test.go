package cpuindexer

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fastinvert/internal/btree"
	"fastinvert/internal/corpus"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
)

// run is one IndexRun's input.
type run struct {
	groups  []*parser.Group
	docBase uint32
}

// reference is occurrence-at-a-time indexing: every occurrence of
// every group, in stream order, through tree.Insert and store.Add or
// AddPos. It is what the memoized insert must be indistinguishable
// from.
type reference struct {
	trees  map[int]*btree.Tree
	stores map[int]*postings.Store
}

func (r *reference) index(t *testing.T, noCache bool, rn run) {
	t.Helper()
	for _, g := range rn.groups {
		tree := r.trees[g.Index]
		if tree == nil {
			tree = btree.New()
			if noCache {
				tree = btree.NewNoCache()
			}
			r.trees[g.Index] = tree
			r.stores[g.Index] = postings.NewStore()
		}
		store := r.stores[g.Index]
		err := g.ForEachPos(func(doc, pos uint32, stripped []byte) error {
			slot, _ := tree.Insert(stripped)
			if g.Positional {
				return store.AddPos(slot, doc+rn.docBase, pos)
			}
			return store.Add(slot, doc+rn.docBase)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// dictEntry is one step of a dictionary walk.
type dictEntry struct {
	term string
	slot int32
}

// assertSame compares the indexer with the reference: the same
// collections, the same dictionary walk (every term, its slot, in key
// order) and the same postings in every slot.
func assertSame(t *testing.T, ix *Indexer, ref *reference) {
	t.Helper()
	var colls []int
	for c := range ref.trees {
		colls = append(colls, c)
	}
	sort.Ints(colls)
	if got := ix.Collections(); !slices.Equal(got, colls) {
		t.Fatalf("collections %v, reference %v", got, colls)
	}
	for _, c := range colls {
		var got, want []dictEntry
		ix.WalkDictionary(c, func(k []byte, slot int32) bool {
			got = append(got, dictEntry{string(k), slot})
			return true
		})
		ref.trees[c].Walk(func(k []byte, slot int32) bool {
			want = append(want, dictEntry{string(k), slot})
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("collection %d: dictionary walk differs (%d terms, reference %d)", c, len(got), len(want))
		}
		for _, e := range want {
			if s := ix.Lookup(c, []byte(e.term)); s != e.slot {
				t.Fatalf("collection %d: Lookup(%q) = %d, reference slot %d", c, e.term, s, e.slot)
			}
		}
		gs, ws := ix.Store(c), ref.stores[c]
		if gs.NumSlots() != ws.NumSlots() || gs.Tokens() != ws.Tokens() {
			t.Fatalf("collection %d: %d slots / %d tokens, reference %d / %d",
				c, gs.NumSlots(), gs.Tokens(), ws.NumSlots(), ws.Tokens())
		}
		for s := int32(0); int(s) < ws.NumSlots(); s++ {
			g, w := gs.List(s), ws.List(s)
			if !slices.Equal(g.DocIDs, w.DocIDs) || !slices.Equal(g.TFs, w.TFs) ||
				!slices.EqualFunc(g.Positions, w.Positions, slices.Equal[[]uint32]) {
				t.Fatalf("collection %d slot %d: list differs from reference", c, s)
			}
		}
	}
}

// handGroup builds a group stream the way the parser does, from terms
// given per document: docs[d] are the stripped terms of local document
// d, in order. Positions, when asked for, count up from 1 per document
// in steps that cross the one-byte varbyte boundary.
func handGroup(index int, positional bool, docs ...[]string) *parser.Group {
	g := &parser.Group{Index: index, Positional: positional}
	for d, terms := range docs {
		if len(terms) == 0 {
			continue
		}
		g.Stream = append(g.Stream, parser.DocMarker, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
		for i, term := range terms {
			g.Stream = append(g.Stream, byte(len(term)))
			g.Stream = append(g.Stream, term...)
			if positional {
				for pos := uint32(1 + 50*i); ; pos >>= 7 {
					if pos < 0x80 {
						g.Stream = append(g.Stream, byte(pos))
						break
					}
					g.Stream = append(g.Stream, byte(pos)|0x80)
				}
			}
			g.Tokens++
			g.Chars += len(term)
		}
	}
	return g
}

// handGroups is the hand-made part of the input: groups around the
// sizes at which a memo table is sized, filled and grown, up to big
// tokens, each all-distinct and single-term; short terms (at most the
// B-tree's four cached bytes), long terms sharing their first four
// bytes, empty terms and bytes from 0x80 up; and a Zipf-like mix in
// which most occurrences are memo hits. Plain and positional.
func handGroups(big int) []*parser.Group {
	distinct := func(n int, format string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf(format, i)
		}
		return out
	}
	repeat := func(n int, term string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = term
		}
		return out
	}
	rng := rand.New(rand.NewSource(21))
	vocab := distinct(300, "w%d")
	var mixed [][]string
	for d := 0; d < 200; d++ {
		doc := make([]string, 1+rng.Intn(40))
		for i := range doc {
			doc[i] = vocab[int(float64(len(vocab))*rng.Float64()*rng.Float64())]
		}
		mixed = append(mixed, doc)
	}
	var hand []*parser.Group
	add := func(positional bool, docs ...[]string) {
		hand = append(hand, handGroup(len(hand), positional, docs...))
	}
	for _, positional := range []bool{false, true} {
		for _, n := range []int{1, 2, 15, 16, 17, big} {
			add(positional, distinct(n, "%x"))              // short and distinct
			add(positional, distinct(n, "abcd%05x"))        // one 4-byte prefix
			add(positional, repeat(n, "q"), repeat(n, "q")) // one term, two documents
		}
		add(positional, []string{"", "a", "", "ab", "abc", "abcd", "abcde", "abcd", ""},
			[]string{"\x80", "\xff\xff\xff\xff", "\xff\xff\xff\xffx", "\x80", "é", "\xfe\x01"},
			[]string{"abcde", "abcdf", "abcdee", "zz", "abcde"})
		add(positional, mixed...)
	}
	return hand
}

// parsedRuns parses one generated container file into runs: all its
// documents as one run, or one run per document.
func parsedRuns(t testing.TB, gen *corpus.Generator, file int, positional, perDoc bool, docBase uint32) []run {
	t.Helper()
	p := parser.New(nil)
	p.Positional = positional
	var runs []run
	seal := func(blk *parser.Block, base uint32) {
		if err := blk.Validate(); err != nil {
			t.Fatal(err)
		}
		var groups []*parser.Group
		for _, g := range blk.Groups {
			groups = append(groups, g)
		}
		sort.Slice(groups, func(i, j int) bool { return groups[i].Index < groups[j].Index })
		runs = append(runs, run{groups, base})
	}
	texts := corpus.SplitDocs(gen.GeneratePlain(file))
	if !perDoc {
		blk := parser.NewBlock(0)
		for d, text := range texts {
			p.ParseDoc(uint32(d), text, blk)
		}
		seal(blk, docBase)
		return runs
	}
	for d, text := range texts {
		blk := parser.NewBlock(0)
		p.ParseDoc(0, text, blk)
		seal(blk, docBase+uint32(d))
	}
	return runs
}

// TestBatchedInsertMatchesPerOccurrence holds IndexRun to the
// occurrence-at-a-time reference on everything that could tell a
// memoized insert from a plain one: which slot each term gets, what a
// dictionary walk yields, and every posting of every list.
func TestBatchedInsertMatchesPerOccurrence(t *testing.T) {
	clue := corpus.NewGenerator(corpus.ClueWeb09(0.25))
	wiki := corpus.NewGenerator(corpus.Wikipedia0107(0.25))

	for _, tc := range []struct {
		name    string
		make    func() *Indexer
		noCache bool
		big     int // tokens of the largest hand-made groups
	}{
		{"default", New, false, 70000},
		{"no-cache", func() *Indexer { ix := New(); ix.NoCache = true; return ix }, true, 700},
		// Two hash bits: four homes and four tags for every term of a
		// group, so nearly every probe walks a chain of other terms
		// (which is quadratic, hence the smaller groups).
		{"colliding", func() *Indexer { return NewWithHashBits(2) }, false, 700},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hand := handGroups(tc.big)
			for _, positional := range []bool{false, true} {
				ix := tc.make()
				ref := &reference{trees: map[int]*btree.Tree{}, stores: map[int]*postings.Store{}}
				var runs []run
				if !positional {
					// The hand-made groups carry their own mode; once is enough.
					runs = append(runs, run{hand, 0})
				}
				// A cold dictionary, then warm ones: the second file meets
				// the first one's terms, per-document runs follow whole-file
				// runs into the same dictionary, and the second corpus shares
				// collections with the first.
				base := uint32(100000)
				for _, in := range []struct {
					gen    *corpus.Generator
					file   int
					perDoc bool
				}{{clue, 0, false}, {clue, 1, false}, {clue, 2, true}, {wiki, 0, false}, {wiki, 1, true}} {
					rs := parsedRuns(t, in.gen, in.file, positional, in.perDoc, base)
					runs = append(runs, rs...)
					base += 100000
				}
				for _, rn := range runs {
					if _, err := ix.IndexRun(rn.groups, rn.docBase); err != nil {
						t.Fatal(err)
					}
					ref.index(t, tc.noCache, rn)
				}
				assertSame(t, ix, ref)

				// Postings reset, dictionary kept: the same runs again land
				// in the same slots.
				ix.ResetRunPostings()
				for _, s := range ref.stores {
					s.ResetRun()
				}
				for _, rn := range runs[:min(len(runs), 3)] {
					if _, err := ix.IndexRun(rn.groups, rn.docBase); err != nil {
						t.Fatal(err)
					}
					ref.index(t, tc.noCache, rn)
				}
				assertSame(t, ix, ref)
			}
		})
	}
}
