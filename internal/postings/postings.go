// Package postings implements the in-memory postings lists built by
// the indexers: for each dictionary slot, the list of (document ID,
// term frequency) pairs in ascending document order. The pipeline's
// strict round-robin buffer consumption guarantees documents arrive in
// global order, so appends keep lists sorted with no re-sorting (§III.F).
package postings

import (
	"errors"
	"fmt"
)

// List is the postings list of one term: parallel docID / term
// frequency slices in strictly ascending docID order. Positional
// lists additionally carry each posting's in-document term positions
// (ascending); Positions is nil for non-positional lists.
type List struct {
	DocIDs    []uint32
	TFs       []uint32
	Positions [][]uint32
}

// Add records one occurrence of the term in doc. Occurrences of the
// same document must be contiguous (the parser emits a document's
// terms together); a repeated docID increments the frequency of the
// existing tail posting.
func (l *List) Add(doc uint32) error {
	if n := len(l.DocIDs); n > 0 {
		last := l.DocIDs[n-1]
		if doc == last {
			l.TFs[n-1]++
			return nil
		}
		if doc < last {
			return fmt.Errorf("postings: docID %d after %d breaks order", doc, last)
		}
	}
	l.DocIDs = append(l.DocIDs, doc)
	l.TFs = append(l.TFs, 1)
	return nil
}

// AddPos records one positional occurrence. Positions within a
// document must arrive in ascending order.
func (l *List) AddPos(doc, pos uint32) error {
	if n := len(l.DocIDs); n > 0 && l.DocIDs[n-1] == doc {
		ps := l.Positions[n-1]
		if len(ps) > 0 && pos <= ps[len(ps)-1] {
			return fmt.Errorf("postings: position %d after %d in doc %d breaks order",
				pos, ps[len(ps)-1], doc)
		}
		l.TFs[n-1]++
		l.Positions[n-1] = append(ps, pos)
		return nil
	}
	if err := l.Add(doc); err != nil {
		return err
	}
	l.Positions = append(l.Positions, []uint32{pos})
	return nil
}

// Positional reports whether the list carries positions.
func (l *List) Positional() bool { return l.Positions != nil }

// Len reports the number of postings (distinct documents).
func (l *List) Len() int { return len(l.DocIDs) }

// TotalTF reports the total number of occurrences recorded.
func (l *List) TotalTF() uint64 {
	var sum uint64
	for _, tf := range l.TFs {
		sum += uint64(tf)
	}
	return sum
}

// Reset empties the list, retaining capacity for the next run.
func (l *List) Reset() {
	l.DocIDs = l.DocIDs[:0]
	l.TFs = l.TFs[:0]
	if l.Positions != nil {
		l.Positions = l.Positions[:0]
	}
}

// Store maps dictionary postings slots to lists for one indexer. The
// slot space is dense (B-trees assign slots sequentially), so the store
// is a growable slice rather than a map.
type Store struct {
	lists  []List
	tokens uint64
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Add records one occurrence of the term owning slot in doc.
func (s *Store) Add(slot int32, doc uint32) error {
	if slot < 0 {
		return errors.New("postings: negative slot")
	}
	for int(slot) >= len(s.lists) {
		s.lists = append(s.lists, List{})
	}
	s.tokens++
	return s.lists[slot].Add(doc)
}

// AddPos records one positional occurrence for slot.
func (s *Store) AddPos(slot int32, doc, pos uint32) error {
	if slot < 0 {
		return errors.New("postings: negative slot")
	}
	for int(slot) >= len(s.lists) {
		s.lists = append(s.lists, List{})
	}
	s.tokens++
	return s.lists[slot].AddPos(doc, pos)
}

// List returns the list for slot, or nil if the slot has no postings.
func (s *Store) List(slot int32) *List {
	if slot < 0 || int(slot) >= len(s.lists) {
		return nil
	}
	return &s.lists[slot]
}

// NumSlots reports the size of the dense slot space seen so far.
func (s *Store) NumSlots() int { return len(s.lists) }

// Tokens reports the total number of occurrences added.
func (s *Store) Tokens() uint64 { return s.tokens }

// ResetRun clears every list at the end of a run while keeping the
// slot space (the dictionary persists across runs; postings are
// flushed per run, §III.E).
func (s *Store) ResetRun() {
	for i := range s.lists {
		s.lists[i].Reset()
	}
}

// Postings reports the total posting count across all slots.
func (s *Store) Postings() int {
	n := 0
	for i := range s.lists {
		n += s.lists[i].Len()
	}
	return n
}

// Concat appends part to dst, validating that part is sorted and that
// its docIDs all exceed dst's tail — the condition run-ordered partial
// lists satisfy, making the final merge a pure concatenation (§III.F's
// monolithic index). Postings whose document drop reports are left
// out; a nil drop keeps every posting.
func Concat(dst *List, part *List, drop func(doc uint32) bool) error {
	if part.Len() == 0 {
		return nil
	}
	if dst.Len() > 0 && dst.Positional() != part.Positional() {
		return errors.New("postings: mixing positional and plain partial lists")
	}
	if n := len(dst.DocIDs); n > 0 && part.DocIDs[0] <= dst.DocIDs[n-1] {
		return fmt.Errorf("postings: partial list starts at %d, tail is %d",
			part.DocIDs[0], dst.DocIDs[n-1])
	}
	for i := 1; i < len(part.DocIDs); i++ {
		if part.DocIDs[i] <= part.DocIDs[i-1] {
			return errors.New("postings: partial list not sorted")
		}
	}
	if drop == nil {
		dst.DocIDs = append(dst.DocIDs, part.DocIDs...)
		dst.TFs = append(dst.TFs, part.TFs...)
		if part.Positional() {
			dst.Positions = append(dst.Positions, part.Positions...)
		}
		return nil
	}
	for i, doc := range part.DocIDs {
		if drop(doc) {
			continue
		}
		dst.DocIDs = append(dst.DocIDs, doc)
		dst.TFs = append(dst.TFs, part.TFs[i])
		if part.Positional() {
			dst.Positions = append(dst.Positions, part.Positions[i])
		}
	}
	return nil
}
