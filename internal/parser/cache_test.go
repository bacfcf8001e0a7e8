package parser_test

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"fastinvert/internal/corpus"
	"fastinvert/internal/parser"
	"fastinvert/internal/stem"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/trie"
	"fastinvert/internal/verify"
)

// uncachedBlock is what ParseDoc must produce, composed from the four
// steps' own packages with no cache between them.
type uncachedBlock struct {
	streams   map[int][]byte
	lastDoc   map[int]uint32
	tokens    int
	docTokens map[uint32]int
	docs      map[uint32]struct{}
}

func newUncachedBlock() *uncachedBlock {
	return &uncachedBlock{
		streams:   map[int][]byte{},
		lastDoc:   map[int]uint32{},
		docTokens: map[uint32]int{},
		docs:      map[uint32]struct{}{},
	}
}

func (u *uncachedBlock) parseDoc(docID uint32, text []byte, positional bool) {
	var tok parser.Tokenizer
	stop := stopwords.Default()
	off := 0
	for pos := uint32(0); ; pos++ {
		raw, next, ok := tok.Next(text, off)
		if !ok {
			break
		}
		off = next
		term := stem.Stem(raw)
		if stop.Contains(term) || len(term) == 0 {
			continue
		}
		coll := trie.Index(term)
		stripped := trie.Strip(coll, term)
		s, started := u.streams[coll]
		if !started || u.lastDoc[coll] != docID {
			s = append(s, parser.DocMarker, byte(docID), byte(docID>>8), byte(docID>>16), byte(docID>>24))
			u.lastDoc[coll] = docID
		}
		s = append(s, byte(len(stripped)))
		s = append(s, stripped...)
		if positional {
			p := pos
			for ; p >= 0x80; p >>= 7 {
				s = append(s, byte(p)|0x80)
			}
			s = append(s, byte(p))
		}
		u.streams[coll] = s
		u.tokens++
		u.docTokens[docID]++
	}
	u.docs[docID] = struct{}{}
}

func (u *uncachedBlock) diff(blk *parser.Block) error {
	if blk.Tokens != u.tokens || blk.NumDocs != len(u.docs) {
		return fmt.Errorf("tokens/docs %d/%d, uncached %d/%d", blk.Tokens, blk.NumDocs, u.tokens, len(u.docs))
	}
	if !maps.Equal(blk.DocTokens, u.docTokens) {
		return fmt.Errorf("DocTokens %v, uncached %v", blk.DocTokens, u.docTokens)
	}
	if len(blk.Groups) != len(u.streams) {
		return fmt.Errorf("%d groups, uncached %d", len(blk.Groups), len(u.streams))
	}
	for coll, want := range u.streams {
		if g := blk.Groups[coll]; g == nil || !bytes.Equal(g.Stream, want) {
			return fmt.Errorf("collection %d: stream differs from the uncached composition", coll)
		}
	}
	return blk.Validate()
}

// TestTokenCacheIsInvisible runs the differential harness's adversarial
// corpora — unicode, invalid UTF-8, digits, stop words, stemming
// families, duplicate documents, 300-byte tokens — plus tokens on both
// sides of the cache's key length through ParseDoc and through the
// uncached composition, and wants every group stream byte for byte.
// The one- and four-slot geometries make every word collide.
func TestTokenCacheIsInvisible(t *testing.T) {
	var edge []byte
	for _, n := range []int{1, parser.TokenKeyLen - 1, parser.TokenKeyLen, parser.TokenKeyLen + 1,
		parser.MaxTokenLen, parser.MaxTokenLen + 1, 2*parser.MaxTokenLen + 1} {
		for _, c := range []string{"k", "é", "7"} {
			// Twice, so the second is a hit where the length fits a key.
			w := strings.Repeat(c, n)[:n]
			edge = append(edge, w+" "+strings.ToUpper(w)+" running "+w+"\n"...)
		}
	}
	// stem.Stem rewrites its argument in place: a cache that took its key
	// after stemming would file a word's outcome under the bytes the
	// stemmer left behind, and hand it to that other word when it comes.
	for _, w := range []string{"relational", "conditional", "happy", "digitizer", "sensitiviti", "hopefulness"} {
		left := []byte(w)
		stem.Stem(left)
		edge = append(edge, w+" "+string(left)+" "+w+"\n"...)
	}
	for _, slots := range []int{1, 4, 64, 0} {
		for _, positional := range []bool{false, true} {
			for seed := int64(1); seed <= 6; seed++ {
				p := parser.New(nil)
				if slots > 0 {
					p = parser.NewWithCacheSlots(nil, slots)
				}
				p.Positional = positional
				src := verify.NewSource(verify.DefaultGenConfig(seed))
				for f := 0; f < src.NumFiles(); f++ {
					stored, gz, err := src.ReadFile(f)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := corpus.Decompress(stored, gz)
					if err != nil {
						t.Fatal(err)
					}
					blk, want := parser.NewBlock(0), newUncachedBlock()
					for d, doc := range append(corpus.SplitDocs(plain), edge, nil, edge) {
						p.ParseDoc(uint32(d), doc, blk)
						want.parseDoc(uint32(d), doc, positional)
					}
					if err := want.diff(blk); err != nil {
						t.Fatalf("slots %d positional %v seed %d file %d: %v", slots, positional, seed, f, err)
					}
				}
				if hits, _ := p.TokenCacheStats(); hits == 0 {
					t.Errorf("slots %d seed %d: no token ever hit the cache", slots, seed)
				}
			}
		}
	}
}

// BenchmarkParseDoc parses one generated ClueWeb-like container file
// per iteration into a recycled block, as a pipeline parser does, and
// reports the host cost per raw token.
func BenchmarkParseDoc(b *testing.B) {
	plain := corpus.NewGenerator(corpus.ClueWeb09(1)).GeneratePlain(0)
	docs := corpus.SplitDocs(plain)
	p := parser.New(nil)
	blk := parser.NewBlock(0)
	parse := func() {
		blk.Reset()
		for d, doc := range docs {
			p.ParseDoc(uint32(d), doc, blk)
		}
	}
	parse() // the cache allocation and the block's growth are not steady state
	hits, misses := p.TokenCacheStats()
	rawTokens := hits + misses
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parse()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*rawTokens), "ns/token")
}
