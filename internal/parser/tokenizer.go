// Package parser implements the paper's parser stage (§III.C, Fig. 3):
// tokenization, Porter stemming, stop-word removal, and the regrouping
// step that reorders a document batch's terms by trie-collection index
// and strips the trie-captured prefix. Its output, a Block, is the
// parsed stream consumed by the CPU and GPU indexers.
package parser

import (
	"fastinvert/internal/stem"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/trie"
)

// MaxTokenLen bounds raw token length. The paper assumes no term
// exceeds 255 bytes (Fig. 6's one-byte length); we clamp earlier so
// that even after prefix stripping a term record's length byte can
// never equal the docMarker sentinel.
const MaxTokenLen = 200

// Tokenizer splits document bytes into lowercase tokens. Token bytes
// are ASCII letters (case-folded), digits, and any byte >= 0x80
// (multi-byte UTF-8 content such as "zoé" stays a single token, giving
// Table I's "special letter" terms); everything else separates tokens.
type Tokenizer struct {
	buf  []byte
	hash uint32 // FNV-1a of the token Next last returned
}

// foldTable maps a byte to its folded token form, 0 for a separator
// (NUL is one, so 0 is never a token byte).
var foldTable = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c >= 0x80:
			t[c] = byte(c)
		case c >= 'A' && c <= 'Z':
			t[c] = byte(c + 'a' - 'A')
		}
	}
	return t
}()

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// Next scans text from offset off and returns the next token (valid
// until the following call), the offset to resume at, and ok=false at
// end of input. Over-long runs are truncated to MaxTokenLen with the
// remainder of the run consumed.
func (t *Tokenizer) Next(text []byte, off int) (tok []byte, next int, ok bool) {
	n := len(text)
	for off < n && foldTable[text[off]] == 0 {
		off++
	}
	if off >= n {
		return nil, n, false
	}
	buf := t.buf[:0]
	h := uint32(fnvOffset32)
	for ; off < n; off++ {
		c := foldTable[text[off]]
		if c == 0 {
			break
		}
		if len(buf) < MaxTokenLen {
			buf = append(buf, c)
			h = (h ^ uint32(c)) * fnvPrime32
		}
	}
	t.buf, t.hash = buf, h
	return buf, off, true
}

// The token cache. Web text repeats a few thousand words (Zipf), and
// what Steps 3-5 make of a word — dropped, or a trie collection and the
// stripped term — depends on the word and the parser's stop list alone.
// Each parser keeps those outcomes in a direct-mapped table probed with
// the hash Next rolled, so a repeated word costs one probe in place of
// stem + stop-word lookup + trie index. Tokens longer than the inline
// key bypass it.
const (
	tokenCacheSlots = 8192 // x 56 B = 448 KiB per parser
	tokenKeyLen     = 24
	tokenDropped    = -1
)

type tokenEntry struct {
	key     [tokenKeyLen]byte // the folded raw token
	term    [tokenKeyLen]byte // its stripped term, never longer than the token
	keyLen  uint8             // 0 marks an empty slot: no token is empty
	termLen uint8
	coll    int32 // trie collection, or tokenDropped
}

// Parser executes Steps 2-5 of Fig. 3 for successive documents. It is
// not safe for concurrent use; the pipeline runs one Parser per parser
// thread.
type Parser struct {
	tok  Tokenizer
	stop *stopwords.Set

	// cache is allocated on the first ParseDoc; its length is a power
	// of two.
	cache                  []tokenEntry
	cacheHits, cacheMisses int64

	// Positional records each surviving term's token position within
	// its document (the raw token ordinal, so removed stop words
	// leave gaps — the convention phrase queries expect). It may change
	// between documents: a cached outcome does not depend on it.
	Positional bool
}

// New returns a Parser using the given stop-word set (nil means the
// default English list).
func New(stop *stopwords.Set) *Parser {
	if stop == nil {
		stop = stopwords.Default()
	}
	return &Parser{stop: stop}
}

// TokenCacheStats reports how many raw tokens this parser has resolved
// from its token cache and how many it ran through Steps 3-5, over its
// lifetime.
func (p *Parser) TokenCacheStats() (hits, misses int64) { return p.cacheHits, p.cacheMisses }

// resolve runs Steps 3-5 on one raw token, rewriting it in place: stem,
// drop stop words, and route the term to its trie collection with the
// captured prefix stripped.
//
// The trie index is computed on the final stemmed term rather than
// during the raw scan: stemming only rewrites suffixes but can shorten
// a term across Table I's three-letter boundary (e.g. "cats" -> "cat"),
// and the dictionary must see a consistent index for a given stored
// term. The added cost is a few byte inspections per term, matching
// the paper's "minimal additional effort" claim.
func (p *Parser) resolve(tok []byte) (coll int, stripped []byte, keep bool) {
	term := stem.Stem(tok)
	if p.stop.Contains(term) || len(term) == 0 {
		return 0, nil, false
	}
	coll = trie.Index(term)
	return coll, trie.Strip(coll, term), true
}

// ParseDoc tokenizes, stems and filters one document and appends its
// terms to the block under local document ID docID (Steps 2-4), routed
// to per-trie-collection groups with prefixes stripped (Step 5).
func (p *Parser) ParseDoc(docID uint32, text []byte, blk *Block) {
	if p.Positional {
		blk.Positional = true
	}
	if p.cache == nil {
		p.cache = make([]tokenEntry, tokenCacheSlots)
	}
	mask := uint32(len(p.cache) - 1)
	off := 0
	pos := uint32(0) // raw token ordinal
	kept, hits := 0, 0
	for {
		tok, next, ok := p.tok.Next(text, off)
		if !ok {
			break
		}
		off = next
		tokenPos := pos
		pos++
		var coll int
		var stripped []byte
		if len(tok) <= tokenKeyLen {
			h := p.tok.hash
			e := &p.cache[(h^h>>16)&mask]
			if int(e.keyLen) == len(tok) && string(e.key[:len(tok)]) == string(tok) {
				hits++
			} else {
				// Fill the key first: resolve rewrites tok.
				e.keyLen = uint8(copy(e.key[:], tok))
				e.coll = tokenDropped
				if c, s, keep := p.resolve(tok); keep {
					e.coll = int32(c)
					e.termLen = uint8(copy(e.term[:], s))
				}
			}
			if e.coll == tokenDropped {
				continue
			}
			coll, stripped = int(e.coll), e.term[:e.termLen]
		} else {
			var keep bool
			if coll, stripped, keep = p.resolve(tok); !keep {
				continue
			}
		}
		if g := blk.group(coll); p.Positional {
			g.appendPos(docID, tokenPos, stripped)
		} else {
			g.append(docID, stripped)
		}
		kept++
	}
	blk.Tokens += kept
	if kept > 0 {
		blk.DocTokens[docID] += kept
	}
	blk.docSeen(docID)
	p.cacheHits += int64(hits)
	p.cacheMisses += int64(pos) - int64(hits)
}
