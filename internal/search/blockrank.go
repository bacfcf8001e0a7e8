package search

// Pruned top-k evaluation: MaxScore over the blocked postings layout
// (store run format v5). The evaluator returns results identical to
// the exhaustive scorer — same docs, same ranks, bitwise-identical
// scores — while decoding only the blocks its pruning bounds cannot
// rule out.
//
// Exactness rests on three invariants, mirrored from the exhaustive
// path:
//
//  1. A surviving document's final score is recomputed by summing the
//     per-term contributions in query-word order with the exact same
//     floating-point expressions the exhaustive scorer uses, so the
//     rounded sums agree bit for bit.
//
//  2. Document-at-a-time traversal visits docIDs in ascending order,
//     so every heap-resident document has a smaller docID than any new
//     candidate. Score ties keep the smaller docID, which means a
//     candidate scoring exactly theta (the current k-th best) can
//     never displace anything — pruning at bound <= theta and
//     admitting only on score > theta is exact, not approximate.
//
//  3. Bounds are compared through boundExceeds, which inflates the
//     bound by a relative slack before comparing. Upper bounds are
//     exact over the reals but individually rounded, and partial sums
//     accumulate in a different order than the exhaustive scorer's —
//     the slack absorbs those few-ulp discrepancies so a bound can
//     never round below a score it mathematically dominates.

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// RankMode selects the top-k evaluation strategy.
type RankMode int32

const (
	// RankAuto runs the pruned evaluator (MaxScore) whenever the source
	// serves block metadata, falling back to the exhaustive scorer
	// otherwise. The default.
	RankAuto RankMode = iota
	// RankExhaustive forces the whole-list scorer.
	RankExhaustive
)

func (m RankMode) String() string {
	switch m {
	case RankAuto:
		return "auto"
	case RankExhaustive:
		return "exhaustive"
	}
	return fmt.Sprintf("RankMode(%d)", int32(m))
}

// boundSlack is the relative margin bound comparisons concede to
// floating-point rounding: around 1e5 ulps, orders of magnitude above
// the drift a realistic query's summation reordering can produce, and
// far too small to blunt pruning.
const boundSlack = 1e-9

// boundExceeds reports whether an upper bound b may exceed theta,
// erring toward true so rounding can never prune a document the
// exhaustive scorer would keep.
func boundExceeds(b, theta float64) bool {
	return b*(1+boundSlack) > theta
}

// RankStats counts block-evaluator work since the Searcher was built.
type RankStats struct {
	BlockQueries    uint64 // TopK calls served by the block evaluator
	FallbackQueries uint64 // TopK calls that fell back to exhaustive
	BlocksDecoded   uint64 // postings blocks decoded
	BlocksSkipped   uint64 // postings blocks skipped via their bound
}

// rankCounters is the atomic backing store for RankStats.
type rankCounters struct {
	blockQueries    atomic.Uint64
	fallbackQueries atomic.Uint64
	blocksDecoded   atomic.Uint64
	blocksSkipped   atomic.Uint64
}

// RankStats snapshots the block-evaluator counters.
func (s *Searcher) RankStats() RankStats {
	return RankStats{
		BlockQueries:    s.rankStats.blockQueries.Load(),
		FallbackQueries: s.rankStats.fallbackQueries.Load(),
		BlocksDecoded:   s.rankStats.blocksDecoded.Load(),
		BlocksSkipped:   s.rankStats.blocksSkipped.Load(),
	}
}

// SetRankMode selects the top-k evaluation strategy. Safe to call
// concurrently with queries; each TopK call reads the mode once.
func (s *Searcher) SetRankMode(m RankMode) { s.rankMode.Store(int32(m)) }

// GetRankMode reports the current strategy.
func (s *Searcher) GetRankMode() RankMode { return RankMode(s.rankMode.Load()) }

// idf is a term's inverse document frequency over a collection of
// numDocs documents, df of which hold the term. Both scorers call it
// with the same arguments, which is what keeps their scores bitwise
// equal: block sources refuse to serve when tombstones would make a
// term's block counts disagree with its visible postings.
func (s *Searcher) idf(numDocs int64, df int) float64 {
	if s.UsesBM25() {
		return math.Log(1 + (float64(numDocs)-float64(df)+0.5)/(float64(df)+0.5))
	}
	return math.Log(1 + float64(numDocs)/float64(df))
}

// score is one posting's contribution to its document's score — the
// one spelling of the expression, so sums over it in query-word order
// agree bit for bit whichever scorer forms them.
func (s *Searcher) score(idf float64, tf, doc uint32) float64 {
	f := float64(tf)
	if s.UsesBM25() {
		norm := 1 - bm25B
		if int(doc) < len(s.docLens) {
			norm += bm25B * float64(s.docLens[doc]) / s.avgLen
		} else {
			norm += bm25B
		}
		return idf * f * (bm25K1 + 1) / (f + bm25K1*norm)
	}
	return f * idf
}

// impactBound is the largest contribution a posting with term
// frequency maxTF can make to any document's score. BM25's
// contribution is increasing in tf and decreasing in the length norm,
// so evaluating it at (maxTF, minNorm) dominates every posting the
// bound covers; the TF-IDF fallback is exactly maxTF*idf.
func (s *Searcher) impactBound(idf float64, maxTF uint32) float64 {
	tf := float64(maxTF)
	if s.UsesBM25() {
		return idf * tf * (bm25K1 + 1) / (tf + bm25K1*s.minNorm)
	}
	return tf * idf
}

// contribution is one positioned cursor's score contribution at doc.
func (s *Searcher) contribution(c *blockCursor, doc uint32) float64 {
	return s.score(c.idf, c.curTF, doc)
}

// blockCursor iterates one term's postings block-at-a-time across the
// term's sources (merged file, or sealed segments plus memtable),
// whose doc ranges are disjoint and ascending: it walks the lists'
// skip tables in place, (li, bi) naming the current block, and decodes
// a block only when the traversal actually enters it — into the two
// buffers it owns, so a query decodes any number of blocks without
// allocating. A pseudo-block (memtable tail, cached list) is served as
// its own slices instead, uncopied.
type blockCursor struct {
	idf float64 // this term's idf, shared by bounds and contributions
	ub  float64 // term-level score upper bound

	lists  []*store.BlockList
	li, bi int  // current block: list, block within the list
	loaded bool // the current block is decoded into docs/tfs

	docs, tfs []uint32 // the decoded block: buffer prefixes or a pseudo-block
	pi        int      // position within it
	curDoc    uint32
	curTF     uint32
	impact    float64 // contribution at curDoc, once the evaluator computed it
	done      bool
	nDecoded  uint64
	nSkipped  uint64

	docBuf, tfBuf [store.BlockLen]uint32
}

// init points a pooled cursor at a term's block view and positions it
// on the first posting. The buffers keep whatever the last query left
// in them; nothing reads them before a decode overwrites them.
func (c *blockCursor) init(idf, ub float64, lists []*store.BlockList) error {
	c.idf, c.ub, c.lists = idf, ub, lists
	c.li, c.bi, c.loaded, c.done = 0, 0, false, false
	c.nDecoded, c.nSkipped = 0, 0
	return c.nextGEQ(0)
}

// enter decodes the current block unless it already is decoded, and
// stands the cursor on its posting at pi.
func (c *blockCursor) enter(pi int) error {
	if !c.loaded {
		var err error
		c.docs, c.tfs, err = c.lists[c.li].DecodeBlockInto(c.bi, c.docBuf[:], c.tfBuf[:])
		if err != nil {
			return err
		}
		c.loaded = true
		c.nDecoded++
	}
	c.pi, c.curDoc, c.curTF = pi, c.docs[pi], c.tfs[pi]
	return nil
}

// nextGEQ advances the cursor to the first posting with docID >=
// target, skipping whole blocks by their lastDoc without decoding.
func (c *blockCursor) nextGEQ(target uint32) error {
	for ; c.li < len(c.lists); c.li, c.bi = c.li+1, 0 {
		l := c.lists[c.li]
		for c.bi < l.NumBlocks() && l.Skip(c.bi).LastDoc < target {
			if !c.loaded {
				c.nSkipped++
			}
			c.loaded = false
			c.bi++
		}
		if c.bi < l.NumBlocks() {
			break
		}
	}
	if c.li == len(c.lists) {
		c.done = true
		return nil
	}
	lo := 0
	if c.loaded {
		lo = c.pi
	} else if err := c.enter(0); err != nil {
		return err
	}
	// The block's last docID is its skip entry's lastDoc (checked at
	// decode) and that is >= target, so the search never leaves it.
	for hi := len(c.docs) - 1; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if c.docs[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return c.enter(lo)
}

// next advances the cursor one posting.
func (c *blockCursor) next() error {
	if c.pi+1 < len(c.docs) {
		return c.enter(c.pi + 1)
	}
	c.loaded = false
	if c.bi++; c.bi == c.lists[c.li].NumBlocks() {
		c.li, c.bi = c.li+1, 0
	}
	if c.li == len(c.lists) {
		c.done = true
		return nil
	}
	return c.enter(0)
}

// rankScratch is what a ranked query works in besides what its fetches
// return: the cursors with their decode buffers, the evaluator's
// orderings, the exhaustive merge's list heads and the result heap.
// One lives in the Searcher's pool between queries, so steady-state
// evaluation allocates only the result slice.
//
// Lifetime: a scratch belongs to one TopKModeCtx call from getScratch
// to putScratch; nothing it holds may be returned (results are copied
// out of the heap), and putScratch drops every reference to fetched
// data — block lists, their blobs, cached postings a pseudo-block
// wraps — so an idle scratch pins only its own buffers.
type rankScratch struct {
	cursors []blockCursor
	byUB    []*blockCursor
	ubacc   []float64
	heads   []listHead
	heap    topHeap
}

func (s *Searcher) getScratch() *rankScratch {
	if sc, _ := s.scratch.Get().(*rankScratch); sc != nil {
		return sc
	}
	return new(rankScratch)
}

func (s *Searcher) putScratch(sc *rankScratch) {
	for i := range sc.cursors {
		c := &sc.cursors[i]
		c.lists, c.docs, c.tfs = nil, nil, nil
	}
	sc.cursors = sc.cursors[:0]
	clear(sc.heads)
	sc.heads = sc.heads[:0]
	sc.heap = sc.heap[:0]
	s.scratch.Put(sc)
}

// topKBlocks is the block-at-a-time TopK driver: it builds one cursor
// per scoring query word and runs the evaluator. The second return is
// false when the source cannot serve blocks right now and the caller
// must fall back to the exhaustive scorer.
func (s *Searcher) topKBlocks(ctx context.Context, sc *rankScratch, k int, words []string) ([]ScoredDoc, bool, error) {
	numDocs := s.NumDocs()
	// Sized up front: the evaluator holds pointers into the slice.
	if cap(sc.cursors) < len(words) {
		sc.cursors = make([]blockCursor, 0, len(words))
	}
	for _, w := range words {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		term, stop := s.Normalize(w)
		if stop || term == "" {
			continue
		}
		tb, err := s.idx.BlockPostingsCtx(ctx, term)
		if err != nil {
			return nil, false, err
		}
		if tb == nil {
			return nil, false, nil
		}
		if tb.Len() == 0 {
			continue
		}
		var maxTF uint32
		for _, l := range tb.Lists {
			maxTF = max(maxTF, l.MaxTF())
		}
		n := len(sc.cursors)
		sc.cursors = sc.cursors[:n+1]
		idf := s.idf(numDocs, tb.Len())
		if err := sc.cursors[n].init(idf, s.impactBound(idf, maxTF), tb.Lists); err != nil {
			return nil, false, err
		}
	}
	rsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageRank)
	out, err := s.topKMaxScore(sc, k)
	if err != nil {
		rsp.End()
		return nil, false, err
	}
	var dec, skp uint64
	for i := range sc.cursors {
		dec += sc.cursors[i].nDecoded
		skp += sc.cursors[i].nSkipped
	}
	rsp.AddItems(int64(len(out)))
	if rsp.Live() {
		rsp.SetNote(fmt.Sprintf("auto decoded=%d skipped=%d", dec, skp))
	}
	rsp.End()
	s.rankStats.blockQueries.Add(1)
	s.rankStats.blocksDecoded.Add(dec)
	s.rankStats.blocksSkipped.Add(skp)
	return out, true, nil
}

// topKMaxScore is the MaxScore evaluator over sc.cursors: terms sorted
// by their bound, the weakest prefix (whose combined bounds cannot
// reach theta) turned non-essential — candidates come only from
// essential cursors, and non-essential lists are probed per candidate,
// strongest first, with early abandonment once even the remaining
// bounds cannot lift the partial score past theta. Non-essential lists
// are only entered via nextGEQ, so their blocks are skipped wholesale.
func (s *Searcher) topKMaxScore(sc *rankScratch, k int) ([]ScoredDoc, error) {
	cursors := sc.cursors
	// Ascending bound, equal bounds in term order, by stable insertion:
	// a query has a handful of words.
	byUB := sc.byUB[:0]
	for i := range cursors {
		c := &cursors[i]
		j := len(byUB)
		byUB = append(byUB, c)
		for ; j > 0 && byUB[j-1].ub > c.ub; j-- {
			byUB[j] = byUB[j-1]
		}
		byUB[j] = c
	}
	ubacc := sc.ubacc[:0]
	acc := 0.0
	for _, c := range byUB {
		acc += c.ub
		ubacc = append(ubacc, acc)
	}
	sc.byUB, sc.ubacc = byUB, ubacc
	h := &sc.heap
	theta := math.Inf(-1)
	e := 0 // byUB[:e] are non-essential
	for e < len(byUB) {
		var cand uint32
		found := false
		for _, c := range byUB[e:] {
			if !c.done && (!found || c.curDoc < cand) {
				cand = c.curDoc
				found = true
			}
		}
		if !found {
			break
		}
		partial := 0.0
		for _, c := range byUB[e:] {
			if !c.done && c.curDoc == cand {
				c.impact = s.contribution(c, cand)
				partial += c.impact
			}
		}
		alive := true
		for i := e - 1; i >= 0; i-- {
			if !boundExceeds(partial+ubacc[i], theta) {
				alive = false
				break
			}
			c := byUB[i]
			if !c.done && c.curDoc < cand {
				if err := c.nextGEQ(cand); err != nil {
					return nil, err
				}
			}
			if !c.done && c.curDoc == cand {
				c.impact = s.contribution(c, cand)
				partial += c.impact
			}
		}
		if alive {
			// The abandonment sums above ran in bound order; the
			// survivor's score is the same contributions summed again in
			// term order, for bitwise equality with the exhaustive scorer
			// (every cursor containing cand is positioned on it now, and
			// this round computed its impact).
			var score float64
			for i := range cursors {
				if c := &cursors[i]; !c.done && c.curDoc == cand {
					score += c.impact
				}
			}
			theta = h.admit(k, ScoredDoc{cand, score}, theta)
			// Once every term is non-essential nothing can beat theta
			// and the loop ends.
			for e < len(byUB) && !boundExceeds(ubacc[e], theta) {
				e++
			}
		}
		for _, c := range byUB[e:] {
			if !c.done && c.curDoc == cand {
				if err := c.next(); err != nil {
					return nil, err
				}
			}
		}
	}
	return h.results(), nil
}
