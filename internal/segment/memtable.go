package segment

import (
	"slices"
	"strings"
	"sync"

	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
	"fastinvert/internal/store"
	"fastinvert/internal/trie"
)

// memtable is the in-memory write segment: one hash table from
// (collection, stripped term) to that term's postings list, kept for
// the memtable's whole life. A term seen for the first time takes its
// collection's next slot — first-appearance order, the order the batch
// indexer's B-trees assign — so a sealed memtable is byte for byte the
// run the batch path would write for the same documents.
//
// A RWMutex covers it: adds are serialized by the manager's write lock
// anyway, and queries deep-copy lists under the read lock because a
// repeated term bumps the tail TF in place. Once frozen (the manager
// swapped in a fresh memtable and is sealing this one) nothing writes
// to it again.
type memtable struct {
	mu sync.RWMutex
	// index maps termKey bytes to the term's position in terms.
	index map[string]int32
	terms []memTerm
	// nextSlot is each collection's slot counter, allocated with the
	// memtable's first term.
	nextSlot []int32
	key      []byte // termKey scratch, writer only
	firstDoc uint32
	docs     uint32
	tokens   int64
}

// memTerm is one dictionary term of a memtable and its postings.
type memTerm struct {
	key  string // termKey: collection (2 bytes) + stripped term
	coll int32
	slot int32
	list postings.List
}

// termKey appends the table key of a stripped term of collection coll
// to dst: the collection in two big-endian bytes (trie.NumCollections
// fits in 16 bits), then the stripped bytes.
func termKey(dst []byte, coll int, stripped []byte) []byte {
	return append(append(dst, byte(coll>>8), byte(coll)), stripped...)
}

// newMemtable returns an empty memtable whose first document is
// firstDoc, with room for terms terms — the size of the memtable it
// replaces, so a steady ingest does not grow the table term by term.
func newMemtable(firstDoc uint32, terms int) *memtable {
	return &memtable{
		index:    make(map[string]int32, terms),
		terms:    make([]memTerm, 0, terms),
		firstDoc: firstDoc,
	}
}

// add indexes one parsed document under the given global docID: every
// group of blk, whose only document is local doc 0. Documents arrive in
// ascending docID order (the manager assigns IDs under its write lock),
// so postings stay sorted by construction.
func (m *memtable) add(doc uint32, blk *parser.Block) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for coll, g := range blk.Groups {
		m.key = termKey(m.key[:0], coll, nil)
		err := g.ForEachPos(func(_, pos uint32, stripped []byte) error {
			m.key = append(m.key[:2], stripped...)
			i, ok := m.index[string(m.key)]
			if !ok {
				i = m.insert(coll)
			}
			if g.Positional {
				return m.terms[i].list.AddPos(doc, pos)
			}
			return m.terms[i].list.Add(doc)
		})
		if err != nil {
			return err
		}
	}
	m.docs++
	m.tokens += int64(blk.Tokens)
	return nil
}

// insert enters the term in m.key as the next slot of its collection.
func (m *memtable) insert(coll int) int32 {
	if m.nextSlot == nil {
		m.nextSlot = make([]int32, trie.NumCollections)
	}
	i := int32(len(m.terms))
	key := string(m.key)
	m.index[key] = i
	m.terms = append(m.terms, memTerm{key: key, coll: int32(coll), slot: m.nextSlot[coll]})
	m.nextSlot[coll]++
	return i
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

// numTerms reports the number of distinct terms across collections.
func (m *memtable) numTerms() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.terms)
}

// postings returns a deep copy of the term's in-memory list, or nil
// when the memtable has never seen the term.
func (m *memtable) postings(term string) *postings.List {
	tb := []byte(term)
	coll := trie.Index(tb)
	key := termKey(make([]byte, 0, 2+len(tb)), coll, trie.Strip(coll, tb))
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.index[string(key)]
	if !ok {
		return nil
	}
	return copyList(&m.terms[i].list)
}

// copyList deep-copies a postings list, including the per-posting
// position slices: an add appends to the tail position slice in place,
// so aliasing any part of it would race with a concurrent add.
func copyList(l *postings.List) *postings.List {
	if l.Len() == 0 {
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

// appendEntry appends the term's dictionary entry, restored to its
// full form, to dst.
func (t *memTerm) appendEntry(dst []store.DictEntry, scratch []byte) ([]store.DictEntry, []byte) {
	scratch = append(trie.RestoreAppend(int(t.coll), scratch[:0], nil), t.key[2:]...)
	return append(dst, store.DictEntry{Term: string(scratch), Collection: t.coll, Slot: t.slot}), scratch
}

// dictionary appends the memtable's terms as dictionary entries to dst,
// in no particular order, and returns the extended slice.
func (m *memtable) dictionary(dst []store.DictEntry) []store.DictEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var scratch []byte
	for i := range m.terms {
		dst, scratch = m.terms[i].appendEntry(dst, scratch)
	}
	return dst
}

// seal encodes the memtable into run-file bytes plus the matching
// sorted dictionary. It only reads, so it runs beside queries; the
// manager calls it on a frozen memtable, which nothing writes any more.
// Lists go out in (collection, slot) order — a counting sort, since
// each collection's slots are dense — and the dictionary is then
// sorted once, collection by collection. Long lists get the blocked skip-table layout so the ranked path
// can evaluate sealed segments block-at-a-time.
func (m *memtable) seal(sel encoding.Selector, lastDoc uint32) (data []byte, dict []store.DictEntry, lists int, err error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	// start[c] is where collection c's slots begin in order.
	start := make([]int32, len(m.nextSlot))
	var n int32
	for c, slots := range m.nextSlot {
		start[c] = n
		n += slots
	}
	order := make([]int32, len(m.terms))
	for i := range m.terms {
		t := &m.terms[i]
		order[start[t.coll]+t.slot] = int32(i)
	}
	b := store.NewRunBuilderCodec(sel)
	b.EnableBlocks()
	dict = make([]store.DictEntry, 0, len(m.terms))
	var scratch []byte
	for _, i := range order {
		t := &m.terms[i]
		if t.list.Positional() {
			err = b.AddPositionalList(int(t.coll), t.slot, t.list.DocIDs, t.list.TFs, t.list.Positions)
		} else {
			err = b.AddList(int(t.coll), t.slot, t.list.DocIDs, t.list.TFs)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		dict, scratch = t.appendEntry(dict, scratch)
	}
	// dict is in (collection, slot) order: each collection's entries
	// sit together, so sorting each by term makes the whole canonical.
	for c, n := range m.nextSlot {
		if n > 1 {
			slices.SortFunc(dict[start[c]:start[c]+n], func(a, b store.DictEntry) int {
				return strings.Compare(a.Term, b.Term)
			})
		}
	}
	return b.Finalize(m.firstDoc, lastDoc), dict, b.Lists(), nil
}
