package gpuindexer

import (
	"bytes"
	"sort"
	"testing"

	"fastinvert/internal/btree"
	"fastinvert/internal/gpu"
)

// TestFindInNodeOrdersAsBytesCompare builds one leaf whose keys tie on
// their 4-byte caches with and without arena remainders, are shorter
// than the cache (zero padding) and carry bytes >= 0x80, then checks
// that the integer lane compare places every probe where bytes.Compare
// on the whole keys does and counts exactly the tied lanes as divergent.
func TestFindInNodeOrdersAsBytesCompare(t *testing.T) {
	keys := []string{
		"", "a", "ab", "abc", "abcd", "abcde", "abcdz", "abcdzz", "abce", "b",
		"\x7f\x7f\x7f\x7f", "\x80", "\x80\x81\x82\x83", "\x80\x81\x82\x83\x84",
		"\xc3\xa9t\xc3\xa9", "\xfe", "\xff\xff\xff\xff", "\xff\xff\xff\xff\xff",
	}
	probes := append([]string{
		"aa", "abcda", "abcdy", "abcdzzz", "abd", "c", "\x7f", "\x80\x81",
		"\x80\x81\x82\x83\x83", "\x80\x81\x82\x83\x85", "\xc3\xa9", "\xc3\xa9t\xc3\xaa",
		"\xff", "\xff\xff\xff\xff\xfe", "\xff\xff\xff\xff\xff\xff",
	}, keys...)
	sort.Strings(keys) // Go strings order bytewise, as bytes.Compare does

	cacheOf := func(s string) [btree.CacheBytes]byte {
		var c [btree.CacheBytes]byte
		copy(c[:], s)
		return c
	}
	wantDivergent := int64(0)
	dev := testDevice()
	ix := New(dev, Config{})
	st := dev.Launch(1, func(b *gpu.Block) {
		k := newKernelCtx(ix, b, 0)
		coll := &collection{}
		k.buildEmptyNode(shNodeA, 1)
		for i, key := range keys {
			k.insertAt(shNodeA, i, []byte(key), coll)
		}
		for _, probe := range probes {
			wantPos, wantFound := 0, false
			for i, key := range keys {
				switch c := bytes.Compare([]byte(probe), []byte(key)); {
				case c > 0:
					wantPos++
				case c == 0:
					wantPos, wantFound = i, true
				}
				if cacheOf(probe) == cacheOf(key) &&
					(len(probe) > btree.CacheBytes || len(key) > btree.CacheBytes) {
					wantDivergent++
				}
			}
			pos, found := k.findInNode(shNodeA, []byte(probe))
			if pos != wantPos || found != wantFound {
				t.Errorf("findInNode(%q) = %d, %v; bytes.Compare says %d, %v",
					probe, pos, found, wantPos, wantFound)
			}
		}
	})
	if st.Divergent != wantDivergent {
		t.Errorf("%d divergent lanes charged, want %d (one per cache tie with a remainder on either side)",
			st.Divergent, wantDivergent)
	}
}
