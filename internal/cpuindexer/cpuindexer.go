// Package cpuindexer implements the paper's CPU indexer (§III.D.1):
// one thread owning an exclusive set of popular trie collections,
// building a cached B-tree per collection (btree package) and the
// corresponding postings lists. The hot paths of the frequent Zipf-head
// terms keep their root-to-leaf node paths in the processor cache,
// which is why the popular collections are routed here (§III.E).
package cpuindexer

import (
	"bytes"
	"fmt"
	"sort"

	"fastinvert/internal/btree"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
)

// Stats accumulates workload counters over the indexer lifetime
// (Table V's CPU columns).
type Stats struct {
	Tokens   int64
	NewTerms int64
	Chars    int64
	Runs     int64
}

// RunStats reports one IndexRun.
type RunStats struct {
	Groups   int
	Tokens   int64
	NewTerms int64
	Chars    int64
}

// Indexer is one CPU indexer thread's state. It is confined to a
// single goroutine.
type Indexer struct {
	trees  map[int]*btree.Tree
	stores map[int]*postings.Store
	stats  Stats

	// The term memo of the group being indexed, reused across groups
	// and runs: an open-addressed table over the stripped term bytes
	// whose entries number the group's distinct terms in order of first
	// appearance, and per term number the bytes (aliasing the group
	// stream) and the resolved postings slot.
	memo     []uint64 // hash<<32 | term number + 1; 0 is empty
	spare    []uint64 // the table growMemo moves into
	terms    [][]byte
	slots    []int32
	hashMask uint32 // all ones outside tests
	seen     map[int]bool

	// NoCache builds dictionaries without the 4-byte string caches,
	// for the string-cache ablation.
	NoCache bool
}

// memoMaxStart bounds the table a group starts with. A group's table
// is sized by the group — twice its tokens, so the three tokens of a
// one-document run clear eight entries however large the last group
// was — but only up to here: a large group holds far fewer distinct
// terms than tokens, and its table grows by what it actually holds.
const memoMaxStart = 1 << 10

// hashTerm is 32-bit FNV-1a.
func hashTerm(term []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range term {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// resetMemo empties the memo for a group of the given token count.
func (ix *Indexer) resetMemo(tokens int) {
	size := 8
	for size < 2*tokens && size < memoMaxStart {
		size <<= 1
	}
	if cap(ix.memo) < size {
		ix.memo = make([]uint64, size)
	}
	ix.memo = ix.memo[:size]
	clear(ix.memo)
	ix.terms = ix.terms[:0]
	ix.slots = ix.slots[:0]
}

// growMemo doubles the table, re-seating every entry by the hash it
// carries. The two tables trade places, so an indexer stops allocating
// once it has seen its largest group.
func (ix *Indexer) growMemo() {
	old, size := ix.memo, 2*len(ix.memo)
	if cap(ix.spare) < size {
		ix.spare = make([]uint64, size)
	}
	ix.memo, ix.spare = ix.spare[:size], old
	clear(ix.memo)
	mask := size - 1
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := int(e>>32) & mask
		for ix.memo[i] != 0 {
			i = (i + 1) & mask
		}
		ix.memo[i] = e
	}
}

// resolve returns the postings slot of a term of the current group.
// The first appearance costs the group's one tree descent for the term
// — a Lookup, and an Insert when the dictionary does not hold it yet —
// and every later one a probe of the memo.
func (ix *Indexer) resolve(tree *btree.Tree, term []byte) int32 {
	h := hashTerm(term) & ix.hashMask
	mask := len(ix.memo) - 1
	i := int(h) & mask
	for ; ix.memo[i] != 0; i = (i + 1) & mask {
		e := ix.memo[i]
		if uint32(e>>32) == h {
			if n := uint32(e) - 1; bytes.Equal(ix.terms[n], term) {
				return ix.slots[n]
			}
		}
	}
	slot := tree.Lookup(term)
	if slot < 0 {
		slot, _ = tree.Insert(term)
	}
	ix.terms = append(ix.terms, term)
	ix.slots = append(ix.slots, slot)
	ix.memo[i] = uint64(h)<<32 | uint64(len(ix.terms))
	if 2*len(ix.terms) > len(ix.memo) {
		ix.growMemo()
	}
	return slot
}

// New returns an empty CPU indexer.
func New() *Indexer {
	return &Indexer{
		trees:    make(map[int]*btree.Tree),
		stores:   make(map[int]*postings.Store),
		hashMask: ^uint32(0),
	}
}

// IndexRun consumes one parsed block's groups: every term occurrence
// is inserted into its collection's B-tree and appended to the
// postings store, with document IDs rebased by docBase.
//
// Each group is indexed in one pass over its stream behind a term
// memo: an occurrence's stripped bytes are hashed into a per-group
// table, and only a term's first appearance in the group descends the
// tree — a large saving on the Zipf head collections routed to the
// CPU, where a few hundred distinct terms make up a hundred thousand
// occurrences. Terms reach the dictionary in stream order of first
// appearance and postings reach each list in stream order, exactly as
// in occurrence-at-a-time insertion, so postings-slot assignment (and
// with it every run file) is bit-identical to it.
func (ix *Indexer) IndexRun(groups []*parser.Group, docBase uint32) (RunStats, error) {
	var rs RunStats
	if ix.seen == nil {
		ix.seen = make(map[int]bool, len(groups))
	} else {
		clear(ix.seen)
	}
	for _, g := range groups {
		if ix.seen[g.Index] {
			return rs, fmt.Errorf("cpuindexer: duplicate collection %d in run", g.Index)
		}
		ix.seen[g.Index] = true
		tree := ix.trees[g.Index]
		if tree == nil {
			if ix.NoCache {
				tree = btree.NewNoCache()
			} else {
				tree = btree.New()
			}
			ix.trees[g.Index] = tree
			ix.stores[g.Index] = postings.NewStore()
		}
		store := ix.stores[g.Index]
		before := tree.Terms()
		if err := ix.indexGroup(tree, store, g, docBase); err != nil {
			return rs, fmt.Errorf("cpuindexer: collection %d: %w", g.Index, err)
		}
		rs.Groups++
		rs.Tokens += int64(g.Tokens)
		rs.Chars += int64(g.Chars)
		rs.NewTerms += int64(tree.Terms() - before)
	}
	ix.stats.Tokens += rs.Tokens
	ix.stats.NewTerms += rs.NewTerms
	ix.stats.Chars += rs.Chars
	ix.stats.Runs++
	return rs, nil
}

// indexGroup indexes one group behind a fresh term memo.
func (ix *Indexer) indexGroup(tree *btree.Tree, store *postings.Store, g *parser.Group, docBase uint32) error {
	ix.resetMemo(g.Tokens)
	positional := g.Positional
	return g.ForEachPos(func(doc, pos uint32, stripped []byte) error {
		slot := ix.resolve(tree, stripped)
		if positional {
			return store.AddPos(slot, doc+docBase, pos)
		}
		return store.Add(slot, doc+docBase)
	})
}

// Stats returns lifetime statistics.
func (ix *Indexer) Stats() Stats { return ix.stats }

// Collections returns the sorted trie indices this indexer has seen.
func (ix *Indexer) Collections() []int {
	out := make([]int, 0, len(ix.trees))
	for idx := range ix.trees {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Store returns the postings store of a collection (nil if unseen).
func (ix *Indexer) Store(coll int) *postings.Store { return ix.stores[coll] }

// TermCount reports the number of distinct terms in a collection.
func (ix *Indexer) TermCount(coll int) int {
	t := ix.trees[coll]
	if t == nil {
		return 0
	}
	return t.Terms()
}

// ResetRunPostings clears per-run postings after a flush; the
// dictionary persists across runs.
func (ix *Indexer) ResetRunPostings() {
	for _, s := range ix.stores {
		s.ResetRun()
	}
}

// Lookup resolves a stripped term to its postings slot within a
// collection, or -1 when the term (or collection) is unknown.
func (ix *Indexer) Lookup(coll int, stripped []byte) int32 {
	t := ix.trees[coll]
	if t == nil {
		return -1
	}
	return t.Lookup(stripped)
}

// WalkDictionary walks one collection's B-tree in key order.
func (ix *Indexer) WalkDictionary(coll int, fn func(stripped []byte, slot int32) bool) {
	t := ix.trees[coll]
	if t == nil {
		return
	}
	t.Walk(fn)
}

// DictionaryMemory reports total dictionary bytes across collections.
func (ix *Indexer) DictionaryMemory() int {
	total := 0
	for _, t := range ix.trees {
		total += t.MemoryBytes()
	}
	return total
}
