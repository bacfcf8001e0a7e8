package parser

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"fastinvert/internal/stem"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/trie"
)

func collectTokens(text string) []string {
	var tok Tokenizer
	var out []string
	off := 0
	for {
		t, next, ok := tok.Next([]byte(text), off)
		if !ok {
			break
		}
		out = append(out, string(t))
		off = next
	}
	return out
}

func TestTokenizerBasics(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  <p>GPU-accelerated indexing</p> ", []string{"p", "gpu", "accelerated", "indexing", "p"}},
		{"x86_64 and -80 meters", []string{"x86", "64", "and", "80", "meters"}},
		{"", nil},
		{"...!!!", nil},
		{"caf\xc3\xa9 zo\xc3\xa9", []string{"caf\xc3\xa9", "zo\xc3\xa9"}},
		{"0195", []string{"0195"}},
	}
	for _, c := range cases {
		got := collectTokens(c.in)
		if len(got) != len(c.want) {
			t.Errorf("tokens(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("tokens(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestTokenizerTruncatesLongRuns(t *testing.T) {
	long := strings.Repeat("a", 5000)
	got := collectTokens(long + " next")
	if len(got) != 2 {
		t.Fatalf("got %d tokens, want 2", len(got))
	}
	if len(got[0]) != MaxTokenLen {
		t.Errorf("long token length %d, want %d", len(got[0]), MaxTokenLen)
	}
	if got[1] != "next" {
		t.Errorf("following token = %q", got[1])
	}
}

func TestParseDocPipeline(t *testing.T) {
	p := New(nil)
	blk := NewBlock(0)
	// "the" is a stop word; "parallelize"/"parallelism" stem together.
	p.ParseDoc(1, []byte("The parallelize and parallelism of application"), blk)
	if blk.NumDocs != 1 {
		t.Fatalf("NumDocs = %d, want 1", blk.NumDocs)
	}
	// Surviving terms: parallel, parallel, applic (stems of application).
	if blk.Tokens != 3 {
		t.Fatalf("Tokens = %d, want 3", blk.Tokens)
	}
	idxPar := trie.IndexString("parallel")
	g := blk.Groups[idxPar]
	if g == nil || g.Tokens != 2 {
		t.Fatalf("parallel group missing or wrong: %+v", g)
	}
	var seen []string
	g.ForEach(func(doc uint32, s []byte) error {
		if doc != 1 {
			t.Errorf("doc = %d, want 1", doc)
		}
		seen = append(seen, string(s))
		return nil
	})
	// "parallel" stripped of "par" -> "allel".
	if len(seen) != 2 || seen[0] != "allel" || seen[1] != "allel" {
		t.Errorf("stripped terms = %v, want [allel allel]", seen)
	}
}

// TestParseDocStemsAndStops pins Steps 3 and 4 to the packages that
// implement them: a word the default list holds is dropped, and a kept
// word lands in the collection of its Porter stem, not of its raw form.
func TestParseDocStemsAndStops(t *testing.T) {
	if !stopwords.Default().Contains([]byte("the")) {
		t.Fatal(`"the" is not a default stop word`)
	}
	if got := stem.StemString("cats"); got != "cat" {
		t.Fatalf(`stem of "cats" = %q, want "cat"`, got)
	}
	blk := NewBlock(0)
	New(nil).ParseDoc(1, []byte("the cats"), blk)
	if blk.Tokens != 1 {
		t.Fatalf("Tokens = %d, want 1 (the stop word dropped)", blk.Tokens)
	}
	if blk.Groups[trie.IndexString("cat")] == nil {
		t.Error("stemmed 'cat' group missing")
	}
	if blk.Groups[trie.IndexString("cats")] != nil {
		t.Error("unstemmed 'cats' was indexed")
	}
}

// TestPositionalFlipsBetweenDocuments: what the token cache holds for a
// word does not depend on Positional, so one parser may serve positional
// and plain blocks in turn, every word after the first document a hit.
func TestPositionalFlipsBetweenDocuments(t *testing.T) {
	text := []byte("the quick fox jumped over the quick dog")
	p := New(nil)
	for round := 0; round < 4; round++ {
		p.Positional = round%2 == 1
		fresh := New(nil)
		fresh.Positional = p.Positional
		got, want := NewBlock(0), NewBlock(0)
		p.ParseDoc(uint32(round), text, got)
		fresh.ParseDoc(uint32(round), text, want)
		if got.Positional != want.Positional || got.Tokens != want.Tokens || len(got.Groups) != len(want.Groups) {
			t.Fatalf("round %d: block %+v, a fresh parser gives %+v", round, got, want)
		}
		for idx, w := range want.Groups {
			g := got.Groups[idx]
			if g == nil || g.Positional != w.Positional || !bytes.Equal(g.Stream, w.Stream) {
				t.Errorf("round %d collection %d: stream differs from a fresh parser's", round, idx)
			}
		}
	}
	if hits, misses := p.TokenCacheStats(); hits != 26 || misses != 6 {
		t.Errorf("cache hits/misses = %d/%d, want 26/6 (six distinct words, 32 tokens)", hits, misses)
	}
}

func TestCustomStopSet(t *testing.T) {
	p := New(stopwords.NewSet([]string{"gpu"}))
	blk := NewBlock(0)
	p.ParseDoc(1, []byte("gpu the indexer"), blk)
	// "gpu" dropped by the custom list; "the" survives (stems to "the"),
	// "indexer" stems to "index".
	if blk.Tokens != 2 {
		t.Fatalf("Tokens = %d, want 2", blk.Tokens)
	}
}

func TestBlockMultipleDocsAndMarkers(t *testing.T) {
	p := New(nil)
	blk := NewBlock(3)
	p.ParseDoc(10, []byte("zebra zebra"), blk)
	p.ParseDoc(11, []byte("zebra"), blk)
	idx := trie.IndexString("zebra")
	g := blk.Groups[idx]
	if g == nil {
		t.Fatal("zebra group missing")
	}
	type occ struct {
		doc  uint32
		term string
	}
	var occs []occ
	g.ForEach(func(doc uint32, s []byte) error {
		occs = append(occs, occ{doc, string(s)})
		return nil
	})
	want := []occ{{10, "ra"}, {10, "ra"}, {11, "ra"}}
	if len(occs) != len(want) {
		t.Fatalf("occurrences = %v, want %v", occs, want)
	}
	for i := range want {
		if occs[i] != want[i] {
			t.Errorf("occ[%d] = %v, want %v", i, occs[i], want[i])
		}
	}
	if err := blk.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestEmptyStrippedTermsSurvive(t *testing.T) {
	// Terms equal to their trie prefix strip to the empty string and
	// must round-trip through the stream format (e.g. "z" in the 'z'
	// short-letter collection strips to "").
	p := New(nil)
	blk := NewBlock(0)
	p.ParseDoc(5, []byte("z z 7"), blk)
	idxZ := trie.IndexString("z")
	g := blk.Groups[idxZ]
	if g == nil {
		t.Fatal("z group missing")
	}
	count := 0
	g.ForEach(func(doc uint32, s []byte) error {
		if len(s) != 0 {
			t.Errorf("stripped = %q, want empty", s)
		}
		count++
		return nil
	})
	if count != 2 {
		t.Errorf("occurrences = %d, want 2", count)
	}
	idx7 := trie.IndexString("7")
	if blk.Groups[idx7] == nil {
		t.Error("numeric group missing")
	}
}

func TestGroupStreamCorruption(t *testing.T) {
	g := &Group{Stream: []byte{docMarker, 1, 0}} // truncated doc marker
	if err := g.ForEach(func(uint32, []byte) error { return nil }); err != ErrCorruptStream {
		t.Errorf("truncated marker: err = %v", err)
	}
	g = &Group{Stream: []byte{3, 'a'}} // term before any doc marker
	if err := g.ForEach(func(uint32, []byte) error { return nil }); err != ErrCorruptStream {
		t.Errorf("missing marker: err = %v", err)
	}
	g = &Group{Stream: []byte{docMarker, 1, 0, 0, 0, 10, 'a'}} // short term
	if err := g.ForEach(func(uint32, []byte) error { return nil }); err != ErrCorruptStream {
		t.Errorf("short term: err = %v", err)
	}
}

// TestRegroupPreservesEverything is the Step 5 invariant: regrouping
// reorders but neither drops nor duplicates occurrences, and restoring
// each group's trie prefix recovers the stemmed, stop-filtered terms.
func TestRegroupPreservesEverything(t *testing.T) {
	f := func(words []uint16) bool {
		var sb strings.Builder
		for _, w := range words {
			n := int(w%8) + 1
			for i := 0; i < n; i++ {
				sb.WriteByte(byte('a' + (int(w)+i*7)%26))
			}
			sb.WriteByte(' ')
		}
		text := []byte(sb.String())

		// Reference: run Steps 2-4 only, counting term multiset.
		ref := map[string]int{}
		refCount := 0
		p0 := New(nil)
		var tok Tokenizer
		off := 0
		for {
			tkn, next, ok := tok.Next(text, off)
			if !ok {
				break
			}
			off = next
			term := append([]byte(nil), tkn...)
			term = stemCopy(term)
			if p0.stop.Contains(term) || len(term) == 0 {
				continue
			}
			ref[string(term)]++
			refCount++
		}

		// Regrouped parse.
		blk := NewBlock(0)
		New(nil).ParseDoc(1, text, blk)
		if blk.Tokens != refCount {
			return false
		}
		got := map[string]int{}
		for idx, g := range blk.Groups {
			err := g.ForEach(func(_ uint32, s []byte) error {
				got[string(trie.Restore(idx, s))]++
				return nil
			})
			if err != nil {
				return false
			}
		}
		if len(got) != len(ref) {
			return false
		}
		for k, v := range ref {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func stemCopy(term []byte) []byte {
	return append([]byte(nil), stem.Stem(term)...)
}
