package segment

import (
	"sort"
	"sync"

	"fastinvert/internal/cpuindexer"
	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
	"fastinvert/internal/store"
	"fastinvert/internal/trie"
)

// memtable is the in-memory write segment: one cpuindexer (trie-routed
// B-tree dictionaries plus postings stores) fed one document per
// IndexRun, with global docIDs passed straight through as the run's
// doc base. A RWMutex covers it — adds are serialized by the manager's
// write lock anyway, and queries deep-copy lists under the read lock
// because postings.Store mutates list tails in place (a repeated term
// bumps the tail TF).
type memtable struct {
	mu       sync.RWMutex
	ix       *cpuindexer.Indexer
	p        *parser.Parser
	blk      *parser.Block
	groups   []*parser.Group // scratch, reused across adds
	gidx     []int           // scratch, sorted group indices
	firstDoc uint32
	docs     uint32
	tokens   int64
}

func newMemtable(firstDoc uint32, positional bool) *memtable {
	p := parser.New(nil)
	p.Positional = positional
	return &memtable{
		ix:       cpuindexer.New(),
		p:        p,
		blk:      parser.NewBlock(0),
		firstDoc: firstDoc,
	}
}

// add parses one document and indexes it under the given global docID.
// Documents arrive in ascending docID order (the manager assigns IDs
// under its write lock), so postings stay sorted by construction.
func (m *memtable) add(doc uint32, text []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.blk.Reset()
	m.p.ParseDoc(0, text, m.blk)
	// Feed groups in sorted collection order for deterministic slot
	// assignment when terms tie across collections of one document.
	m.gidx = m.gidx[:0]
	for idx := range m.blk.Groups {
		m.gidx = append(m.gidx, idx)
	}
	sort.Ints(m.gidx)
	m.groups = m.groups[:0]
	for _, idx := range m.gidx {
		m.groups = append(m.groups, m.blk.Groups[idx])
	}
	if _, err := m.ix.IndexRun(m.groups, doc); err != nil {
		return err
	}
	m.docs++
	m.tokens += int64(m.blk.Tokens)
	return nil
}

func (m *memtable) numDocs() uint32 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.docs
}

func (m *memtable) numTokens() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tokens
}

// postings returns a deep copy of the term's in-memory list, or nil
// when the memtable has never seen the term.
func (m *memtable) postings(term string) *postings.List {
	tb := []byte(term)
	coll := trie.Index(tb)
	stripped := trie.Strip(coll, tb)
	m.mu.RLock()
	defer m.mu.RUnlock()
	slot := m.ix.Lookup(coll, stripped)
	if slot < 0 {
		return nil
	}
	st := m.ix.Store(coll)
	if st == nil || int(slot) >= st.NumSlots() {
		return nil
	}
	return copyList(st.List(slot))
}

// copyList deep-copies a postings list, including the per-posting
// position slices: the store appends to the tail position slice in
// place, so aliasing any part of it would race with a concurrent add.
func copyList(l *postings.List) *postings.List {
	if l == nil || l.Len() == 0 {
		return nil
	}
	out := &postings.List{
		DocIDs: append([]uint32(nil), l.DocIDs...),
		TFs:    append([]uint32(nil), l.TFs...),
	}
	if l.Positional() {
		out.Positions = make([][]uint32, len(l.Positions))
		for i, ps := range l.Positions {
			out.Positions[i] = append([]uint32(nil), ps...)
		}
	}
	return out
}

// dictionary appends the memtable's terms (restored to full form) to
// dst as dictionary entries and returns the extended slice. Entries
// are appended in (collection, term) order.
func (m *memtable) dictionary(dst []store.DictEntry) []store.DictEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var scratch []byte
	for _, coll := range m.ix.Collections() {
		m.ix.WalkDictionary(coll, func(stripped []byte, slot int32) bool {
			scratch = trie.RestoreAppend(coll, scratch[:0], stripped)
			dst = append(dst, store.DictEntry{
				Term:       string(scratch),
				Collection: int32(coll),
				Slot:       slot,
			})
			return true
		})
	}
	return dst
}

// terms reports the number of distinct terms across collections.
func (m *memtable) terms() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, coll := range m.ix.Collections() {
		n += m.ix.TermCount(coll)
	}
	return n
}

// seal encodes the memtable into run-file bytes plus the matching
// sorted dictionary. Callers must have writes blocked (the manager's
// write lock); concurrent readers are unaffected — seal only reads.
// Long lists get the blocked skip-table layout so the ranked path can
// evaluate sealed segments block-at-a-time.
func (m *memtable) seal(sel encoding.Selector, lastDoc uint32) (data []byte, dict []store.DictEntry, lists int, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b := store.NewRunBuilderCodec(sel)
	b.EnableBlocks()
	for _, coll := range m.ix.Collections() {
		st := m.ix.Store(coll)
		for slot := 0; slot < st.NumSlots(); slot++ {
			l := st.List(int32(slot))
			if l == nil || l.Len() == 0 {
				continue
			}
			if l.Positional() {
				err = b.AddPositionalList(coll, int32(slot), l.DocIDs, l.TFs, l.Positions)
			} else {
				err = b.AddList(coll, int32(slot), l.DocIDs, l.TFs)
			}
			if err != nil {
				return nil, nil, 0, err
			}
		}
	}
	var scratch []byte
	for _, coll := range m.ix.Collections() {
		m.ix.WalkDictionary(coll, func(stripped []byte, slot int32) bool {
			scratch = trie.RestoreAppend(coll, scratch[:0], stripped)
			dict = append(dict, store.DictEntry{
				Term:       string(scratch),
				Collection: int32(coll),
				Slot:       slot,
			})
			return true
		})
	}
	store.SortDictEntries(dict)
	return b.Finalize(m.firstDoc, lastDoc), dict, b.Lists(), nil
}
