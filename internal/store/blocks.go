package store

// Block-max postings blocks.
//
// Long non-positional lists are split into fixed-size blocks so the
// ranked path can skip most of a Zipf-head list: each block carries a
// skip entry (lastDocID, count, byteLen, maxTF, impact) and an
// independently decodable codec body. impact is the block's BM25
// bound with the collection statistics factored out: one byte,
//
//	q = ceil(255 * max over the block of tf / (tf + k1*norm(len)))
//
// with norm(len) = 1 - b + b*len/avgRef over the writer's document
// lengths, a document past the length table taking norm 1 as the
// scorer does. avgRef is recorded once per file (run header, v6), and
// q = 0 means the writer had no lengths. idf is deliberately not in
// it: df and N drift under live indexing, and the searcher multiplies
// its own idf in at query time, together with max(1, avgNow/avgRef) —
// a grown average shrinks every norm by at most avgRef/avgNow, a
// shrunk one only lowers scores — so the bound stays valid however the
// collection has changed since the block was written.
//
// Blocked blob layout (self-contained inside the entry's blob bytes,
// selected by FlagBlocks in the entry flags):
//
//	uvarbyte nBlocks
//	nBlocks x { uvarbyte lastDocDelta   first block absolute, then
//	                                    the gap from the previous
//	                                    block's lastDoc (>= 1)
//	            uvarbyte count          postings in the block (>= 1)
//	            uvarbyte byteLen        codec body bytes
//	            uvarbyte maxTF          max term frequency in block
//	            byte     impact         q above, 0 without lengths }
//	concatenated per-block codec bodies (entry codec, first docID of
//	every block encoded absolute, which every registered codec does)

import (
	"fmt"
	"math"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
)

const (
	// BlockLen is the number of postings per block (the last block of
	// a list is shorter when the count is not a multiple), and so the
	// size of the buffers DecodeBlockInto needs.
	BlockLen = 128

	// blockMinPostings is the blocking threshold: shorter lists gain
	// nothing from skip data and stay in the unblocked layout.
	blockMinPostings = 256
)

// BlockSkip is one block's skip entry.
type BlockSkip struct {
	LastDoc uint32 // last docID in the block
	Count   uint32 // postings in the block
	MaxTF   uint32 // maximum term frequency in the block
	Impact  uint8  // quantized BM25 saturation bound, 0 = none stored
}

// BM25 parameters (Robertson's defaults): block impacts are computed
// with the same k1 and b the searcher scores with.
const (
	BM25K1 = 1.2
	BM25B  = 0.75
)

// AvgDocLen is the mean of lens, 0 for none: the one spelling of the
// average that block impacts are written against and the BM25 scorer
// normalizes by, so a file's avgRef equals the searcher's average
// bit for bit when both read the same lengths.
func AvgDocLen(lens []uint32) float64 {
	if len(lens) == 0 {
		return 0
	}
	var sum float64
	for _, l := range lens {
		sum += float64(l)
	}
	return sum / float64(len(lens))
}

// blocking is a writer's blocked-layout setting: whether long
// non-positional lists are blocked, and the document lengths (with
// their AvgDocLen) the blocks' impacts are computed against — none
// writes impact 0 and avgRef 0.
type blocking struct {
	on   bool
	lens []uint32
	avg  float64
}

// impact is q for one block's postings; 0 when the writer has no
// lengths.
func (bk *blocking) impact(docIDs, tfs []uint32) uint8 {
	if bk.avg <= 0 {
		return 0
	}
	best := 0.0
	for i, doc := range docIDs {
		f := float64(tfs[i])
		norm := 1 - BM25B
		if int(doc) < len(bk.lens) {
			norm += BM25B * float64(bk.lens[doc]) / bk.avg
		} else {
			norm += BM25B
		}
		best = max(best, f/(f+BM25K1*norm))
	}
	// best < 1, so q <= 255; a posting has tf >= 1, so q >= 1 unless a
	// list carries tf 0, which still must not read as "no impact".
	return uint8(max(1, math.Ceil(255*best)))
}

// BlockList is the block-at-a-time view of one postings list: the
// parsed skip table plus the undecoded codec bodies. Decode cost is
// paid per block, on demand. A BlockList may also wrap an
// already-decoded list (memtable portions, cache hits) as a single
// exact pseudo-block, so evaluators see one shape everywhere.
type BlockList struct {
	skips  []BlockSkip
	starts []uint32 // len(skips)+1 prefix offsets into body
	body   []byte
	codec  encoding.Codec
	count  int

	mem *postings.List // pseudo-block: decoded list, body == nil

	avgRef float64 // average length the impacts were written against
}

// NumBlocks reports the number of blocks.
func (b *BlockList) NumBlocks() int { return len(b.skips) }

// Count reports the total postings across blocks.
func (b *BlockList) Count() int { return b.count }

// Skip returns block i's skip entry without decoding anything.
func (b *BlockList) Skip(i int) BlockSkip { return b.skips[i] }

// AvgRef reports the average document length the blocks' impacts were
// computed against: the file header's, 0 when none were (pseudo-blocks,
// files written without lengths).
func (b *BlockList) AvgRef() float64 { return b.avgRef }

// MaxTF reports the maximum term frequency across all blocks — the
// list-level impact bound input.
func (b *BlockList) MaxTF() uint32 {
	var m uint32
	for _, s := range b.skips {
		if s.MaxTF > m {
			m = s.MaxTF
		}
	}
	return m
}

// DecodeBlock decodes block i's body into parallel docID/tf slices.
// Freshly allocated for disk-backed lists; pseudo-blocks return the
// wrapped slices directly (callers must not mutate them).
func (b *BlockList) DecodeBlock(i int) (docIDs, tfs []uint32, err error) {
	if b.mem != nil {
		return b.mem.DocIDs, b.mem.TFs, nil
	}
	n := b.skips[i].Count
	return b.DecodeBlockInto(i, make([]uint32, n), make([]uint32, n))
}

// DecodeBlockInto is DecodeBlock into buffers the caller owns, each at
// least BlockLen long: a disk-backed block comes back as the buffers'
// prefixes, a pseudo-block still as its wrapped slices, uncopied —
// either way valid until the buffers are reused. No stored block
// outgrows BlockLen: parseBlockedBlob refuses a skip entry that
// claims to.
func (b *BlockList) DecodeBlockInto(i int, docBuf, tfBuf []uint32) (docIDs, tfs []uint32, err error) {
	if b.mem != nil {
		return b.mem.DocIDs, b.mem.TFs, nil
	}
	s := b.skips[i]
	docIDs, tfs = docBuf[:s.Count], tfBuf[:s.Count]
	if err := b.codec.DecodeInto(b.body[b.starts[i]:b.starts[i+1]], docIDs, tfs); err != nil {
		// Codec failures on a body the skip table vouched for are index
		// corruption; fold them under the typed sentinel.
		return nil, nil, fmt.Errorf("%w: block %d: %v", ErrCorruptRun, i, err)
	}
	if docIDs[s.Count-1] != s.LastDoc {
		return nil, nil, fmt.Errorf("%w: block %d lastDoc mismatch", ErrCorruptRun, i)
	}
	return docIDs, tfs, nil
}

// BlockListFromList wraps an already-decoded list as one exact
// pseudo-block (nil for empty lists). The skip entry is computed from
// the actual postings, so bounds derived from it are exact.
func BlockListFromList(l *postings.List) *BlockList {
	n := l.Len()
	if n == 0 {
		return nil
	}
	var maxTF uint32
	for _, tf := range l.TFs {
		if tf > maxTF {
			maxTF = tf
		}
	}
	return &BlockList{
		skips: []BlockSkip{{LastDoc: l.DocIDs[n-1], Count: uint32(n), MaxTF: maxTF}},
		count: n,
		mem:   l,
	}
}

// TermBlocks is one term's complete block view: one BlockList per
// source (merged file, or per live segment plus the memtable), in
// ascending disjoint docID-range order.
type TermBlocks struct {
	Lists []*BlockList
}

// Len reports the term's total postings (its document frequency —
// exact, because blocked sources are only offered when no tombstones
// hide postings).
func (t *TermBlocks) Len() int {
	n := 0
	for _, l := range t.Lists {
		n += l.count
	}
	return n
}

// appendBlockedList encodes (docIDs, tfs) as a blocked blob appended
// to dst: skip header first, then the per-block codec bodies. Each
// block is encoded independently (all registered codecs store the
// first docID absolute), so decode cost is per block; bk supplies the
// lengths each block's impact is computed from.
func appendBlockedList(dst []byte, codec encoding.Codec, bk *blocking, docIDs, tfs []uint32) ([]byte, error) {
	n := len(docIDs)
	nBlocks := (n + BlockLen - 1) / BlockLen
	var bodies []byte
	bodyStarts := make([]uint32, 0, nBlocks+1)
	bodyStarts = append(bodyStarts, 0)

	dst = encoding.PutUvarByte(dst, uint64(nBlocks))
	prevLast := uint32(0)
	for lo := 0; lo < n; lo += BlockLen {
		hi := lo + BlockLen
		if hi > n {
			hi = n
		}
		var err error
		bodies, err = codec.Encode(bodies, docIDs[lo:hi], tfs[lo:hi], nil)
		if err != nil {
			return nil, err
		}
		var maxTF uint32
		for _, tf := range tfs[lo:hi] {
			if tf > maxTF {
				maxTF = tf
			}
		}
		last := docIDs[hi-1]
		dst = encoding.PutUvarByte(dst, uint64(last-prevLast))
		dst = encoding.PutUvarByte(dst, uint64(hi-lo))
		dst = encoding.PutUvarByte(dst, uint64(len(bodies))-uint64(bodyStarts[len(bodyStarts)-1]))
		dst = encoding.PutUvarByte(dst, uint64(maxTF))
		dst = append(dst, bk.impact(docIDs[lo:hi], tfs[lo:hi]))
		bodyStarts = append(bodyStarts, uint32(len(bodies)))
		prevLast = last
	}
	return append(dst, bodies...), nil
}

// parseBlockedBlob validates and parses a blocked blob against its
// (untrusted) entry. Every structural failure wraps ErrCorruptRun;
// nothing proportional to claimed counts is allocated before the
// claim is bounded by the bytes present.
func parseBlockedBlob(blob []byte, e RunEntry) (*BlockList, error) {
	codec, err := encoding.Lookup(e.Codec())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptRun, err)
	}
	nb, m := encoding.UvarByte(blob)
	if m <= 0 || nb == 0 {
		return nil, fmt.Errorf("%w: blocked blob: bad block count", ErrCorruptRun)
	}
	// Bound nBlocks before allocating the skip table: every block costs
	// at least 5 header bytes (four uvarbytes and the impact byte) plus
	// one body byte, and at least one posting.
	if nb > uint64(len(blob))/6 || nb > uint64(e.Count) {
		return nil, fmt.Errorf("%w: blocked blob: block count exceeds input", ErrCorruptRun)
	}
	rest := blob[m:]
	nBlocks := int(nb)
	bl := &BlockList{
		skips:  make([]BlockSkip, nBlocks),
		starts: make([]uint32, nBlocks+1),
		codec:  codec,
	}
	var prevLast uint64
	var sumCount, sumBytes uint64
	for i := 0; i < nBlocks; i++ {
		var v [4]uint64
		for j := range v {
			var k int
			v[j], k = encoding.UvarByte(rest)
			if k <= 0 {
				return nil, fmt.Errorf("%w: blocked blob: truncated skip entry", ErrCorruptRun)
			}
			rest = rest[k:]
		}
		if len(rest) == 0 {
			return nil, fmt.Errorf("%w: blocked blob: truncated skip entry", ErrCorruptRun)
		}
		impact := rest[0]
		rest = rest[1:]
		delta, count, byteLen, maxTF := v[0], v[1], v[2], v[3]
		if i > 0 && delta == 0 {
			return nil, fmt.Errorf("%w: blocked blob: non-ascending block lastDoc", ErrCorruptRun)
		}
		last := prevLast + delta
		// count <= BlockLen is what lets a reader decode any block into
		// fixed buffers: no writer emits more, so more is corruption.
		if last > math.MaxUint32 || count == 0 || count > BlockLen || maxTF > math.MaxUint32 {
			return nil, fmt.Errorf("%w: blocked blob: skip entry out of range", ErrCorruptRun)
		}
		sumCount += count
		sumBytes += byteLen
		if sumCount > uint64(e.Count) || sumBytes > uint64(len(blob)) {
			return nil, fmt.Errorf("%w: blocked blob: skip totals exceed entry", ErrCorruptRun)
		}
		if uint64(codec.MinBytes(int(count))) > byteLen {
			return nil, fmt.Errorf("%w: blocked blob: block count exceeds body bytes", ErrCorruptRun)
		}
		bl.skips[i] = BlockSkip{LastDoc: uint32(last), Count: uint32(count), MaxTF: uint32(maxTF), Impact: impact}
		bl.starts[i+1] = bl.starts[i] + uint32(byteLen)
		prevLast = last
	}
	if sumCount != uint64(e.Count) {
		return nil, fmt.Errorf("%w: blocked blob: block counts disagree with entry count", ErrCorruptRun)
	}
	if sumBytes != uint64(len(rest)) {
		return nil, fmt.Errorf("%w: blocked blob: block bytes disagree with body", ErrCorruptRun)
	}
	bl.body = rest
	bl.count = int(sumCount)
	return bl, nil
}

// decodeBlockedEntry decodes a blocked blob back into one whole
// postings list, for readers that want the classic shape (term
// lookups, merges of blocked segments, differential read-backs).
func decodeBlockedEntry(blob []byte, e RunEntry) (*postings.List, error) {
	bl, err := parseBlockedBlob(blob, e)
	if err != nil {
		return nil, err
	}
	l := &postings.List{
		DocIDs: make([]uint32, 0, bl.count),
		TFs:    make([]uint32, 0, bl.count),
	}
	for i := 0; i < bl.NumBlocks(); i++ {
		docIDs, tfs, err := bl.DecodeBlock(i)
		if err != nil {
			return nil, err
		}
		l.DocIDs = append(l.DocIDs, docIDs...)
		l.TFs = append(l.TFs, tfs...)
	}
	return l, nil
}
