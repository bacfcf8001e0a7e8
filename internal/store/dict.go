package store

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"fastinvert/internal/encoding"
)

// DictEntry is one dictionary record: a full (restored) term and the
// (collection, slot) pointer that locates its postings lists in the
// run files' mapping tables.
type DictEntry struct {
	Term       string
	Collection int32
	Slot       int32
}

// Dictionary-file layout:
//
//	magic   u32 'FIDC'
//	ver     u32
//	nTerms  u32
//	entries nTerms x { prefixLen uvarbyte, suffixLen uvarbyte,
//	                   suffix bytes, collection uvarbyte, slot uvarbyte }
//
// Entries are sorted by (collection, term): terms of one trie
// collection share their trie prefix, so front-coding against the
// previous term compresses exactly the way Heinz & Zobel's
// lexicographic processing does (§II).
const (
	dictMagic   = 0x46494443 // "FIDC"
	dictVersion = 1
)

// CompareDictEntries orders entries canonically: by collection, then
// term.
func CompareDictEntries(a, b DictEntry) int {
	if c := cmp.Compare(a.Collection, b.Collection); c != 0 {
		return c
	}
	return strings.Compare(a.Term, b.Term)
}

// SortDictEntries puts entries into the canonical (collection, term)
// order required by WriteDictionary.
func SortDictEntries(entries []DictEntry) { slices.SortFunc(entries, CompareDictEntries) }

// WriteDictionary writes the front-coded dictionary. Entries must be
// in canonical order (SortDictEntries).
func WriteDictionary(w io.Writer, entries []DictEntry) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], dictMagic)
	binary.LittleEndian.PutUint32(hdr[4:], dictVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(entries)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var scratch []byte
	prev := ""
	for i, e := range entries {
		if i > 0 {
			p := &entries[i-1]
			if e.Collection < p.Collection ||
				(e.Collection == p.Collection && e.Term < p.Term) {
				return fmt.Errorf("store: dictionary entries out of order at %d", i)
			}
		}
		pl := commonPrefix(prev, e.Term)
		scratch = scratch[:0]
		scratch = encoding.PutUvarByte(scratch, uint64(pl))
		scratch = encoding.PutUvarByte(scratch, uint64(len(e.Term)-pl))
		scratch = append(scratch, e.Term[pl:]...)
		scratch = encoding.PutUvarByte(scratch, uint64(uint32(e.Collection)))
		scratch = encoding.PutUvarByte(scratch, uint64(uint32(e.Slot)))
		if _, err := bw.Write(scratch); err != nil {
			return err
		}
		prev = e.Term
	}
	return bw.Flush()
}

// ErrCorruptDict reports a malformed dictionary file. It wraps
// ErrCorruptIndex, so either sentinel matches via errors.Is — a
// truncated or bit-flipped dictionary surfaces as index corruption to
// callers that only know the public sentinel.
var ErrCorruptDict = fmt.Errorf("corrupt dictionary: %w", ErrCorruptIndex)

// ReadDictionary parses a dictionary file.
func ReadDictionary(r io.Reader) ([]DictEntry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(data) < 12 {
		return nil, ErrCorruptDict
	}
	if binary.LittleEndian.Uint32(data) != dictMagic ||
		binary.LittleEndian.Uint32(data[4:]) != dictVersion {
		return nil, ErrCorruptDict
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	// Preallocate conservatively: the count is untrusted input and an
	// entry needs at least two bytes, so cap by the data size.
	capHint := n
	if max := len(data) / 2; capHint > max {
		capHint = max
	}
	entries := make([]DictEntry, 0, capHint)
	pos := 12
	var prev []byte
	read := func() (uint64, bool) {
		v, m := encoding.UvarByte(data[pos:])
		if m <= 0 {
			return 0, false
		}
		pos += m
		return v, true
	}
	for i := 0; i < n; i++ {
		pl, ok1 := read()
		sl, ok2 := read()
		if !ok1 || !ok2 || pl > uint64(len(prev)) || sl > uint64(len(data)-pos) {
			return nil, ErrCorruptDict
		}
		term := make([]byte, 0, int(pl)+int(sl))
		term = append(term, prev[:pl]...)
		term = append(term, data[pos:pos+int(sl)]...)
		pos += int(sl)
		coll, ok3 := read()
		slot, ok4 := read()
		if !ok3 || !ok4 {
			return nil, ErrCorruptDict
		}
		entries = append(entries, DictEntry{
			Term:       string(term),
			Collection: int32(uint32(coll)),
			Slot:       int32(uint32(slot)),
		})
		prev = term
	}
	return entries, nil
}

func commonPrefix(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// FrontCodedSize estimates the on-disk dictionary size without
// writing, for memory/size reports.
func FrontCodedSize(entries []DictEntry) int {
	size := 12
	prev := ""
	for _, e := range entries {
		pl := commonPrefix(prev, e.Term)
		size += encoding.VarByteLen(uint64(pl))
		size += encoding.VarByteLen(uint64(len(e.Term) - pl))
		size += len(e.Term) - pl
		size += encoding.VarByteLen(uint64(uint32(e.Collection)))
		size += encoding.VarByteLen(uint64(uint32(e.Slot)))
		prev = e.Term
	}
	return size
}

// Lookup finds a term in a canonically-ordered dictionary given its
// collection, using binary search.
func Lookup(entries []DictEntry, collection int32, term string) (DictEntry, bool) {
	i := sort.Search(len(entries), func(i int) bool {
		if entries[i].Collection != collection {
			return entries[i].Collection >= collection
		}
		return entries[i].Term >= term
	})
	if i < len(entries) && entries[i].Collection == collection && entries[i].Term == term {
		return entries[i], true
	}
	return DictEntry{}, false
}
