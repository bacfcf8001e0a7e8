package parser_test

import (
	"testing"

	"fastinvert/internal/parser"
	"fastinvert/internal/trie"
)

// FuzzParseDoc feeds arbitrary document bytes through the full parse
// pipeline and checks that the block invariants hold for any input,
// that a two-slot token cache (every word evicting another) and a warm
// one (the second pass, all hits) both produce what the uncached
// composition of the four steps does.
func FuzzParseDoc(f *testing.F) {
	f.Add([]byte("The quick brown fox"))
	f.Add([]byte(""))
	f.Add([]byte("zo\xc3\xa9 0195 -80 <html> aaat"))
	f.Add([]byte{0xFF, 0x00, 0x80, 'a'})
	f.Fuzz(func(t *testing.T, doc []byte) {
		want := newUncachedBlock()
		want.parseDoc(7, doc, false)
		p, tiny := parser.New(nil), parser.NewWithCacheSlots(nil, 2)
		blk := parser.NewBlock(0)
		for _, psr := range []*parser.Parser{p, p, tiny} {
			blk.Reset()
			psr.ParseDoc(7, doc, blk)
			if err := want.diff(blk); err != nil {
				t.Fatalf("block from %q: %v", doc, err)
			}
		}
		total := 0
		for idx, g := range blk.Groups {
			if !trie.Valid(idx) {
				t.Fatalf("invalid collection %d", idx)
			}
			err := g.ForEach(func(docID uint32, stripped []byte) error {
				if docID != 7 {
					t.Fatalf("docID %d, want 7", docID)
				}
				if len(stripped) > parser.MaxTokenLen {
					t.Fatalf("stripped term too long: %d", len(stripped))
				}
				total++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if total != blk.Tokens {
			t.Fatalf("stream holds %d tokens, block says %d", total, blk.Tokens)
		}
		if blk.DocTokens[7] != blk.Tokens {
			t.Fatalf("doc length %d, want %d", blk.DocTokens[7], blk.Tokens)
		}
	})
}

// FuzzGroupForEach hardens the group-stream decoder against arbitrary
// bytes: parse or reject, never panic, never read out of bounds.
func FuzzGroupForEach(f *testing.F) {
	p := parser.New(nil)
	blk := parser.NewBlock(0)
	p.ParseDoc(1, []byte("hello world zebra"), blk)
	for _, g := range blk.Groups {
		f.Add(g.Stream)
	}
	f.Add([]byte{parser.DocMarker, 1, 0, 0, 0, 3, 'a', 'b', 'c'})
	f.Add([]byte{parser.DocMarker})
	f.Fuzz(func(t *testing.T, stream []byte) {
		g := &parser.Group{Stream: stream}
		g.ForEach(func(uint32, []byte) error { return nil }) //nolint:errcheck
	})
}
