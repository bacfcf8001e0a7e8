package parser

import (
	"sync"
	"testing"
	"unsafe"
)

// allocDocs is a small but non-trivial corpus: repeated vocabulary so
// steady-state structures stop growing, plus digits and multi-byte
// content to cover every tokenizer class.
func allocDocs() [][]byte {
	return [][]byte{
		[]byte("The quick brown fox jumps over the lazy dog 42 times; zoé watched."),
		[]byte("Indexing pipelines recycle buffers: parsing, stemming, grouping, indexing."),
		[]byte("quick foxes and lazy dogs reappear, so dictionaries and groups repeat."),
		[]byte("Buffers, buffers, buffers — the 3rd document repeats terms on purpose."),
	}
}

// TestTokenizerNextSteadyStateAllocs pins Tokenizer.Next at zero
// steady-state allocations: the token buffer is reused across calls, so
// scanning a document must not touch the heap after the first token.
func TestTokenizerNextSteadyStateAllocs(t *testing.T) {
	var tok Tokenizer
	text := allocDocs()[0]
	scan := func() {
		off := 0
		for {
			_, next, ok := tok.Next(text, off)
			if !ok {
				break
			}
			off = next
		}
	}
	scan() // warm the token buffer
	if avg := testing.AllocsPerRun(200, scan); avg != 0 {
		t.Errorf("Tokenizer.Next allocates %.1f objects per document scan, want 0", avg)
	}
}

// TestParseDocSteadyStateAllocs pins the pooled parse path: once a
// recycled Block has seen the vocabulary, parsing the same corpus again
// must not allocate — group structures, stream capacity and map buckets
// all survive the Get/Put cycle, and the parser's token cache was
// allocated by the first ParseDoc of the warm-up (accounted for in
// TestTokenCacheAllocatedOnce).
func TestParseDocSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; budget is meaningless")
	}
	p := New(nil)
	pool := NewBlockPool()
	docs := allocDocs()
	parseAll := func() {
		blk := pool.Get(0)
		for i, d := range docs {
			p.ParseDoc(uint32(i), d, blk)
		}
		pool.Put(blk)
	}
	// Warm until capacities stabilize (map growth, stream doubling).
	for i := 0; i < 4; i++ {
		parseAll()
	}
	if avg := testing.AllocsPerRun(100, parseAll); avg > 0.5 {
		t.Errorf("pooled ParseDoc allocates %.1f objects per file, want ~0", avg)
	}
}

// TestTokenCacheAllocatedOnce accounts for the one allocation the token
// cache costs: none in New, one fixed-size table in a parser's first
// ParseDoc, kept for the parser's life. segment makes a parser per
// memtable and sampling one per build, so the table must stay small.
func TestTokenCacheAllocatedOnce(t *testing.T) {
	if size := tokenCacheSlots * unsafe.Sizeof(tokenEntry{}); size > 512<<10 {
		t.Errorf("token cache is %d KiB a parser, want at most 512", size>>10)
	}
	docs := allocDocs()
	blk := NewBlock(0)
	p := New(nil)
	if p.cache != nil {
		t.Fatal("New allocated the token cache; it is meant to wait for the first ParseDoc")
	}
	p.ParseDoc(0, docs[0], blk)
	if len(p.cache) != tokenCacheSlots {
		t.Fatalf("first ParseDoc left a cache of %d slots, want %d", len(p.cache), tokenCacheSlots)
	}
	table := &p.cache[0]
	for i, d := range docs {
		p.ParseDoc(uint32(i), d, blk)
	}
	if &p.cache[0] != table {
		t.Error("the token cache was reallocated")
	}
	// A fresh parser's first document: the Parser, its cache, and the
	// tokenizer's buffer doubling up to the longest token.
	fresh := func() {
		blk.Reset()
		New(nil).ParseDoc(0, docs[0], blk)
	}
	fresh()
	if avg := testing.AllocsPerRun(50, fresh); avg > 5 {
		t.Errorf("a parser's first ParseDoc allocates %.1f objects, want at most 5 (parser, cache, token buffer)", avg)
	}
}

// TestPooledBlockRoundTripConcurrent drives the pipeline's ownership
// protocol under the race detector: parser goroutines Get and fill
// blocks, a sequencer goroutine drains, reads and Puts them. Any
// aliasing between a recycled block's streams and a reader still
// holding old subslices is a -race failure here.
func TestPooledBlockRoundTripConcurrent(t *testing.T) {
	pool := NewBlockPool()
	docs := allocDocs()
	const parsers, rounds = 4, 50
	ch := make(chan *Block, parsers)
	var wg sync.WaitGroup
	for w := 0; w < parsers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := New(nil)
			p.Positional = id%2 == 1
			for i := 0; i < rounds; i++ {
				blk := pool.Get(id)
				for d, text := range docs {
					p.ParseDoc(uint32(d), text, blk)
				}
				ch <- blk
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	tokens := 0
	for blk := range ch {
		if err := blk.Validate(); err != nil {
			t.Errorf("recycled block failed validation: %v", err)
		}
		for _, g := range blk.Groups {
			err := g.ForEachPos(func(_, _ uint32, stripped []byte) error {
				if len(stripped) > MaxTokenLen {
					t.Errorf("term record longer than MaxTokenLen: %d", len(stripped))
				}
				tokens++
				return nil
			})
			if err != nil {
				t.Errorf("group walk: %v", err)
			}
		}
		pool.Put(blk)
	}
	if tokens == 0 {
		t.Fatal("no tokens observed across pooled round-trips")
	}
}
