package parser

import (
	"errors"
	"fmt"

	"fastinvert/internal/trie"
)

// DocMarker introduces a document boundary inside a group stream: the
// sentinel byte followed by a 4-byte little-endian local document ID.
// Term records use a length byte in [0, MaxTokenLen], so the sentinel
// (255) can never be confused with a term. The GPU indexer decodes
// this format on-device.
const DocMarker = 0xFF

const docMarker = DocMarker

// Group is the parsed stream of one trie collection within a block
// (§III.C): "(Doc_ID1, term1, term2, ...), (Doc_ID2, ...)" encoded as
// Fig. 6 length-prefixed stripped strings with docMarker boundaries.
// In positional mode each term record carries a trailing varbyte token
// position.
type Group struct {
	Index      int    // trie-collection index
	Stream     []byte // docMarker-delimited, length-prefixed stripped terms
	Tokens     int    // term occurrences in this group
	Chars      int    // stripped bytes in this group
	Positional bool   // term records carry positions

	lastDoc   uint32 // last document marked in the stream
	hasAnyDoc bool
}

// reset clears the group for reuse, retaining the stream's capacity.
func (g *Group) reset() {
	g.Index = 0
	g.Stream = g.Stream[:0]
	g.Tokens = 0
	g.Chars = 0
	g.Positional = false
	g.lastDoc = 0
	g.hasAnyDoc = false
}

// append adds one stripped term occurrence for doc.
func (g *Group) append(doc uint32, stripped []byte) {
	if !g.hasAnyDoc || g.lastDoc != doc {
		g.Stream = append(g.Stream, docMarker,
			byte(doc), byte(doc>>8), byte(doc>>16), byte(doc>>24))
		g.lastDoc = doc
		g.hasAnyDoc = true
	}
	g.Stream = append(g.Stream, byte(len(stripped)))
	g.Stream = append(g.Stream, stripped...)
	g.Tokens++
	g.Chars += len(stripped)
}

// appendPos adds one positional occurrence (varbyte position after the
// term bytes).
func (g *Group) appendPos(doc, pos uint32, stripped []byte) {
	g.append(doc, stripped)
	for pos >= 0x80 {
		g.Stream = append(g.Stream, byte(pos)|0x80)
		pos >>= 7
	}
	g.Stream = append(g.Stream, byte(pos))
}

// ErrCorruptStream reports a malformed group stream.
var ErrCorruptStream = errors.New("parser: corrupt group stream")

// ForEach decodes the stream, invoking fn for every term occurrence
// with its local document ID and stripped term bytes (valid only for
// the duration of the call). Positions, if present, are skipped.
func (g *Group) ForEach(fn func(doc uint32, stripped []byte) error) error {
	return g.ForEachPos(func(doc, _ uint32, stripped []byte) error {
		return fn(doc, stripped)
	})
}

// ForEachPos decodes the stream with token positions (always 0 for
// non-positional groups).
func (g *Group) ForEachPos(fn func(doc, pos uint32, stripped []byte) error) error {
	s := g.Stream
	i := 0
	var doc uint32
	seenDoc := false
	for i < len(s) {
		if s[i] == docMarker {
			if i+5 > len(s) {
				return ErrCorruptStream
			}
			doc = uint32(s[i+1]) | uint32(s[i+2])<<8 | uint32(s[i+3])<<16 | uint32(s[i+4])<<24
			seenDoc = true
			i += 5
			continue
		}
		if !seenDoc {
			return ErrCorruptStream
		}
		n := int(s[i])
		i++
		if i+n > len(s) {
			return ErrCorruptStream
		}
		term := s[i : i+n]
		i += n
		var pos uint32
		if g.Positional {
			var shift uint
			for {
				if i >= len(s) || shift > 28 {
					return ErrCorruptStream
				}
				b := s[i]
				i++
				pos |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		if err := fn(doc, pos, term); err != nil {
			return err
		}
	}
	return nil
}

// Block is the parsed output of one batch of documents from a single
// parser: term occurrences regrouped by trie-collection index. Blocks
// flow from parsers to indexers through the pipeline buffers.
type Block struct {
	ParserID int
	Seq      uint64 // global block sequence used for round-robin ordering

	// DocBase is added to local document IDs by the indexers to form
	// global IDs (§III.C: "a global document ID offset will be
	// calculated by the indexer").
	DocBase uint32

	Groups map[int]*Group // trie index -> parsed stream

	NumDocs    int  // documents parsed into this block
	Tokens     int  // term occurrences after stop-word removal
	Bytes      int  // raw input bytes represented
	Positional bool // term records carry token positions

	// DocTokens maps local docID -> surviving token count, the
	// document lengths used by ranked retrieval (BM25 normalization).
	DocTokens map[uint32]int

	docCounted map[uint32]struct{}

	// The token loop finds a collection's group without hashing: slot
	// holds 1 + the group's position in live (creation order), 0 for a
	// collection this block has no group for. Groups, which callers
	// range over, is written only when a group is created.
	slot [trie.NumCollections]uint16
	live []*Group

	// freeGroups recycles this block's Group structures (and their
	// stream capacity) across Reset cycles, so a pooled block's steady
	// state allocates nothing per file.
	freeGroups []*Group
}

// NewBlock returns an empty block for the given parser.
func NewBlock(parserID int) *Block {
	return &Block{
		ParserID:   parserID,
		Groups:     make(map[int]*Group),
		DocTokens:  make(map[uint32]int),
		docCounted: make(map[uint32]struct{}),
	}
}

// group returns the block's group for collection idx, creating it on
// the collection's first token.
func (b *Block) group(idx int) *Group {
	if s := b.slot[idx]; s != 0 {
		return b.live[s-1]
	}
	var g *Group
	if n := len(b.freeGroups); n > 0 {
		g = b.freeGroups[n-1]
		b.freeGroups[n-1] = nil
		b.freeGroups = b.freeGroups[:n-1]
		g.Index = idx
		g.Positional = b.Positional
	} else {
		g = &Group{Index: idx, Positional: b.Positional}
	}
	b.Groups[idx] = g
	b.live = append(b.live, g)
	b.slot[idx] = uint16(len(b.live))
	return g
}

// Reset clears the block for reuse: all counters and maps are emptied,
// and the groups (with their stream capacity) move to an internal free
// list that the next parse draws from. The caller must be done with
// every Group pointer and stream subslice taken from this block —
// after Reset they will be overwritten by the next file's data.
func (b *Block) Reset() {
	for i, g := range b.live {
		b.slot[g.Index] = 0
		g.reset()
		b.freeGroups = append(b.freeGroups, g)
		b.live[i] = nil
	}
	b.live = b.live[:0]
	clear(b.Groups)
	clear(b.DocTokens)
	clear(b.docCounted)
	b.ParserID = 0
	b.Seq = 0
	b.DocBase = 0
	b.NumDocs = 0
	b.Tokens = 0
	b.Bytes = 0
	b.Positional = false
}

func (b *Block) docSeen(doc uint32) {
	if _, ok := b.docCounted[doc]; !ok {
		b.docCounted[doc] = struct{}{}
		b.NumDocs++
	}
}

// AddRawBytes accounts raw (uncompressed) input size for throughput
// reporting.
func (b *Block) AddRawBytes(n int) { b.Bytes += n }

// Validate checks stream well-formedness and that group statistics
// match the streams — used by tests and the pipeline's debug mode.
func (b *Block) Validate() error {
	for idx, g := range b.Groups {
		if idx != g.Index || !trie.Valid(idx) {
			return fmt.Errorf("parser: group index mismatch %d vs %d", idx, g.Index)
		}
		tokens, chars := 0, 0
		err := g.ForEach(func(_ uint32, stripped []byte) error {
			tokens++
			chars += len(stripped)
			return nil
		})
		if err != nil {
			return err
		}
		if tokens != g.Tokens || chars != g.Chars {
			return fmt.Errorf("parser: group %d stats %d/%d, stream %d/%d",
				idx, g.Tokens, g.Chars, tokens, chars)
		}
	}
	return nil
}
