package search

// Pruned top-k evaluation: block-max MaxScore over the blocked
// postings layout (store run format v6, whose skip entries carry each
// block's BM25 impact). The evaluator returns results identical to the
// exhaustive scorer — same docs, same ranks, bitwise-identical scores
// — while decoding only the blocks its pruning bounds cannot rule out.
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
	// RankAuto runs the pruned evaluator (block-max MaxScore) whenever
	// the source serves block metadata, falling back to the exhaustive
	// scorer otherwise. The default.
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
	BlocksSkipped   uint64 // postings blocks left undecoded, passed by skip entry or window
	PostingsScored  uint64 // postings whose contribution was computed, by either scorer
}

// rankCounters is the atomic backing store for RankStats.
type rankCounters struct {
	blockQueries    atomic.Uint64
	fallbackQueries atomic.Uint64
	blocksDecoded   atomic.Uint64
	blocksSkipped   atomic.Uint64
	postingsScored  atomic.Uint64
}

// RankStats snapshots the block-evaluator counters.
func (s *Searcher) RankStats() RankStats {
	return RankStats{
		BlockQueries:    s.rankStats.blockQueries.Load(),
		FallbackQueries: s.rankStats.fallbackQueries.Load(),
		BlocksDecoded:   s.rankStats.blocksDecoded.Load(),
		BlocksSkipped:   s.rankStats.blocksSkipped.Load(),
		PostingsScored:  s.rankStats.postingsScored.Load(),
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

// blockBound is the largest contribution any posting of block bi of l
// can make, never above the term bound ub. Under TF-IDF that is
// maxTF*idf, exact. Under BM25 it is the stored impact q: every
// posting's tf/(tf + k1*norm) is at most q/255 against the writer's
// average avgRef, and against this searcher's average at most
// max(1, avgNow/avgRef) times that, since a grown average shrinks a
// norm by at most avgRef/avgNow and a shrunk one only raises it. A
// block without an impact (q = 0: a pseudo-block, or a file written
// without lengths) keeps the term bound.
func (s *Searcher) blockBound(idf, ub float64, l *store.BlockList, bi int) float64 {
	sk := l.Skip(bi)
	if !s.UsesBM25() {
		return float64(sk.MaxTF) * idf
	}
	ref := l.AvgRef()
	if sk.Impact == 0 || ref <= 0 {
		return ub
	}
	return min(ub, idf*(bm25K1+1)*float64(sk.Impact)/255*max(1, s.avgLen/ref))
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
//
// A cursor moves two ways. seekBlock is shallow: it walks skip entries
// to the block a target falls in and decodes nothing, leaving loaded
// false and curDoc stale. nextGEQ and step are deep: they stand the
// cursor on a posting, decoding the block if they must. So curDoc
// names a posting only while loaded is true.
type blockCursor struct {
	idf float64 // this term's idf, shared by bounds and contributions
	ub  float64 // term-level score upper bound
	bub float64 // the current block's bound (blockBound)

	lists  []*store.BlockList
	li, bi int  // current block: list, block within the list
	loaded bool // the current block is decoded into docs/tfs
	done   bool // past the last block; never loaded

	// lo is a floor under every posting the traversal can still want
	// from the current block: the previous block's lastDoc+1 until the
	// block is entered, the posting the cursor stands on after.
	lo uint32

	docs, tfs []uint32 // the decoded block: buffer prefixes or a pseudo-block
	pi        int      // position within it
	curDoc    uint32
	curTF     uint32
	impact    float64 // contribution at curDoc, once the evaluator computed it
	nDecoded  uint64
	nSkipped  uint64

	docBuf, tfBuf [store.BlockLen]uint32
}

// init points a pooled cursor at a term's block view, on its first
// block, undecoded. The buffers keep whatever the last query left in
// them; nothing reads them before a decode overwrites them.
func (c *blockCursor) init(s *Searcher, idf, ub float64, lists []*store.BlockList) {
	c.idf, c.ub, c.lists = idf, ub, lists
	c.li, c.bi, c.loaded, c.done, c.lo = 0, 0, false, false, 0
	c.nDecoded, c.nSkipped = 0, 0
	c.bub = s.blockBound(idf, ub, lists[0], 0)
}

// lastDoc is the current block's last docID, from its skip entry.
func (c *blockCursor) lastDoc() uint32 { return c.lists[c.li].Skip(c.bi).LastDoc }

// leave moves to the next block, undecoded, and reports false when
// there is none. A block left without being decoded was skipped.
func (c *blockCursor) leave(s *Searcher) bool {
	if !c.loaded {
		c.nSkipped++
	}
	c.loaded = false
	c.lo = c.lastDoc() + 1
	if c.bi++; c.bi == c.lists[c.li].NumBlocks() {
		c.li, c.bi = c.li+1, 0
	}
	if c.li == len(c.lists) {
		c.done = true
		return false
	}
	c.bub = s.blockBound(c.idf, c.ub, c.lists[c.li], c.bi)
	return true
}

// seekBlock moves the cursor shallowly to the first block whose
// lastDoc is at least target.
func (c *blockCursor) seekBlock(s *Searcher, target uint32) {
	for !c.done && c.lastDoc() < target && c.leave(s) {
	}
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
	c.lo = c.curDoc
	return nil
}

// nextGEQ stands the cursor on the first posting with docID >= target,
// passing whole blocks by their lastDoc without decoding them.
func (c *blockCursor) nextGEQ(s *Searcher, target uint32) error {
	if c.seekBlock(s, target); c.done {
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

// step advances a loaded cursor one posting; off the end of its block
// it moves to the next block undecoded.
func (c *blockCursor) step(s *Searcher) error {
	if c.pi+1 < len(c.docs) {
		return c.enter(c.pi + 1)
	}
	c.leave(s)
	return nil
}

// rankScratch is what a ranked query works in besides what its fetches
// return: the cursors with their decode buffers, the evaluator's
// orderings and bound sums, the exhaustive merge's list heads and the
// result heap. One lives in the Searcher's pool between queries, so
// steady-state evaluation allocates only the result slice.
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
	wacc    []float64
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
		idf := s.idf(numDocs, tb.Len())
		var maxTF uint32
		for _, l := range tb.Lists {
			maxTF = max(maxTF, l.MaxTF())
		}
		// The term bound is the largest block bound: below the maxTF
		// bound wherever every block carries an impact.
		tfUB := s.impactBound(idf, maxTF)
		ub := 0.0
		for _, l := range tb.Lists {
			for bi := 0; bi < l.NumBlocks(); bi++ {
				ub = max(ub, s.blockBound(idf, tfUB, l, bi))
			}
		}
		n := len(sc.cursors)
		sc.cursors = sc.cursors[:n+1]
		sc.cursors[n].init(s, idf, ub, tb.Lists)
	}
	rsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageRank)
	out, work, err := s.topKMaxScore(sc, k)
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
		rsp.SetNote(fmt.Sprintf("auto decoded=%d skipped=%d windows=%d skipped_windows=%d scored=%d",
			dec, skp, work.windows, work.skippedWindows, work.scored))
	}
	rsp.End()
	s.rankStats.blockQueries.Add(1)
	s.rankStats.blocksDecoded.Add(dec)
	s.rankStats.blocksSkipped.Add(skp)
	s.rankStats.postingsScored.Add(work.scored)
	return out, true, nil
}

// evalWork is what one block-max MaxScore run did beyond decoding:
// windows examined, windows passed over whole, postings scored.
type evalWork struct {
	windows, skippedWindows, scored uint64
}

// topKMaxScore is block-max MaxScore over sc.cursors. Terms are sorted
// by their bound and the weakest prefix whose bounds together cannot
// beat theta is non-essential, as in plain MaxScore: candidates come
// only from essential cursors, and non-essential ones are probed per
// candidate, strongest first, abandoning the candidate once the
// remaining bounds cannot lift its partial score past theta.
//
// The blocks tighten that in windows. Each round moves every cursor,
// shallowly, to its block holding target; the window is [target, W],
// W the smallest of those blocks' lastDocs, so each cursor's postings
// in the window all lie in its current block and that block's bound
// covers them (a block starting past W covers nothing). When the
// window's bounds summed cannot beat theta, the evaluator jumps to
// W+1 having decoded nothing. Otherwise the candidate loop runs inside
// the window with the block bounds in place of the term bounds: the
// prefix whose block bounds cannot beat theta is non-essential for
// this window, and abandonment sums block bounds. An essential cursor
// that runs off its block stops on the next one, undecoded.
func (s *Searcher) topKMaxScore(sc *rankScratch, k int) ([]ScoredDoc, evalWork, error) {
	var work evalWork
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
	wacc := append(sc.wacc[:0], ubacc...)
	sc.byUB, sc.ubacc, sc.wacc = byUB, ubacc, wacc
	h := &sc.heap
	theta := math.Inf(-1)
	e := 0 // byUB[:e] are non-essential for the rest of the query
	target := uint32(0)
	for e < len(byUB) {
		w := uint32(math.MaxUint32)
		live := false
		for _, c := range byUB {
			if c.seekBlock(s, target); !c.done {
				w = min(w, c.lastDoc())
				live = true
			}
		}
		if !live {
			break
		}
		work.windows++
		acc := 0.0
		for i, c := range byUB {
			if !c.done && c.lo <= w {
				acc += c.bub
			}
			wacc[i] = acc
		}
		ew := e // byUB[:ew] are non-essential in this window
		for ew < len(byUB) && !boundExceeds(wacc[ew], theta) {
			ew++
		}
		if ew == len(byUB) {
			work.skippedWindows++
		}
		for ew < len(byUB) {
			var cand uint32
			found := false
			for _, c := range byUB[ew:] {
				if c.done || c.lo > w {
					continue
				}
				if !c.loaded || c.curDoc < target {
					if err := c.nextGEQ(s, target); err != nil {
						return nil, work, err
					}
				}
				if c.curDoc <= w && (!found || c.curDoc < cand) {
					cand = c.curDoc
					found = true
				}
			}
			if !found {
				break
			}
			partial := 0.0
			for _, c := range byUB[ew:] {
				if c.loaded && c.curDoc == cand {
					c.impact = s.contribution(c, cand)
					work.scored++
					partial += c.impact
				}
			}
			alive := true
			for i := ew - 1; i >= 0; i-- {
				if !boundExceeds(partial+wacc[i], theta) {
					alive = false
					break
				}
				c := byUB[i]
				if c.done || c.lo > cand {
					continue // no posting at cand
				}
				if !c.loaded || c.curDoc < cand {
					if err := c.nextGEQ(s, cand); err != nil {
						return nil, work, err
					}
				}
				if c.loaded && c.curDoc == cand {
					c.impact = s.contribution(c, cand)
					work.scored++
					partial += c.impact
				}
			}
			if alive {
				// The abandonment sums above ran in bound order; the
				// survivor's score is the same contributions summed again in
				// term order, for bitwise equality with the exhaustive scorer
				// (every cursor holding cand stands on it now, and this
				// round computed its impact).
				var score float64
				for i := range cursors {
					if c := &cursors[i]; c.loaded && c.curDoc == cand {
						score += c.impact
					}
				}
				theta = h.admit(k, ScoredDoc{cand, score}, theta)
				// Once every term is non-essential nothing can beat theta
				// and the query ends; once every term is in this window,
				// the window does.
				for e < len(byUB) && !boundExceeds(ubacc[e], theta) {
					e++
				}
				ew = max(ew, e)
				for ew < len(byUB) && !boundExceeds(wacc[ew], theta) {
					ew++
				}
			}
			for _, c := range byUB[ew:] {
				if c.loaded && c.curDoc == cand {
					if err := c.step(s); err != nil {
						return nil, work, err
					}
				}
			}
		}
		if w == math.MaxUint32 {
			break
		}
		target = w + 1
	}
	return h.results(), work, nil
}
