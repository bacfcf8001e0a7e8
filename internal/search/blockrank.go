package search

// Block-max top-k evaluation (PR 10): MaxScore and Block-Max-WAND over
// the blocked postings layout (store run format v5). Both evaluators
// return results identical to the exhaustive TopK scorer — same docs,
// same ranks, bitwise-identical scores — while decoding only the
// blocks their pruning bounds cannot rule out.
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
//     candidate. The exhaustive heap breaks score ties by keeping the
//     smaller docID, which means a candidate scoring exactly theta
//     (the current k-th best) can never displace anything — pruning at
//     bound <= theta and admitting only on score > theta is exact, not
//     approximate.
//
//  3. Bounds are compared through boundExceeds, which inflates the
//     bound by a relative slack before comparing. Upper bounds are
//     exact over the reals but individually rounded, and partial sums
//     accumulate in a different order than the exhaustive scorer's —
//     the slack absorbs those few-ulp discrepancies so a bound can
//     never round below a score it mathematically dominates.

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// RankMode selects the top-k evaluation strategy.
type RankMode int32

const (
	// RankAuto uses Block-Max-WAND whenever the source serves block
	// metadata, falling back to the exhaustive scorer otherwise. The
	// default.
	RankAuto RankMode = iota
	// RankExhaustive forces the whole-list scorer.
	RankExhaustive
	// RankMaxScore forces the MaxScore evaluator.
	RankMaxScore
	// RankBlockMax forces the Block-Max-WAND evaluator.
	RankBlockMax
)

func (m RankMode) String() string {
	switch m {
	case RankAuto:
		return "auto"
	case RankExhaustive:
		return "exhaustive"
	case RankMaxScore:
		return "maxscore"
	case RankBlockMax:
		return "bmw"
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
	BlockQueries    uint64 // TopK calls served by a block evaluator
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

// impactBound is the largest contribution a posting with term
// frequency maxTF can make to any document's score — the per-block and
// per-term upper bound. BM25's contribution is increasing in tf and
// decreasing in the length norm, so evaluating it at (maxTF, minNorm)
// dominates every posting the bound covers; the TF-IDF fallback is
// exactly maxTF*idf.
func (s *Searcher) impactBound(idf float64, maxTF uint32) float64 {
	tf := float64(maxTF)
	if s.UsesBM25() {
		return idf * tf * (bm25K1 + 1) / (tf + bm25K1*s.minNorm)
	}
	return tf * idf
}

// contribution is one positioned cursor's score contribution at doc,
// spelled with the exact expressions of the exhaustive scorer so
// recomputed sums match it bitwise.
func (s *Searcher) contribution(c *blockCursor, doc uint32) float64 {
	tf := float64(c.curTF)
	if s.UsesBM25() {
		norm := 1 - bm25B
		if int(doc) < len(s.docLens) {
			norm += bm25B * float64(s.docLens[doc]) / s.avgLen
		} else {
			norm += bm25B
		}
		return c.idf * tf * (bm25K1 + 1) / (tf + bm25K1*norm)
	}
	return tf * c.idf
}

// blockCursor iterates one term's postings block-at-a-time across the
// term's sources (merged file, or sealed segments plus memtable),
// whose doc ranges are disjoint and ascending; the flattened skip
// table is therefore globally sorted and a block is only decoded when
// the traversal actually enters it.
type blockCursor struct {
	ti  int     // term index: preserves query-word summation order
	idf float64 // this term's idf, shared by bounds and contributions
	ub  float64 // term-level score upper bound (max block bound)

	lists []*store.BlockList
	skips []store.BlockSkip // flattened across lists
	ubs   []float64         // per-block score bound, parallel to skips
	li    []int32           // owning list index, parallel to skips
	bi    []int32           // block index within the owning list

	cur      int // current block (index into skips)
	dec      int // block currently decoded into docs/tfs, -1 none
	docs     []uint32
	tfs      []uint32
	pi       int // position within the decoded block
	curDoc   uint32
	curTF    uint32
	done     bool
	nDecoded uint64
	nSkipped uint64
}

// newBlockCursor flattens a term's block view and positions the cursor
// on its first posting. The idf expression matches the exhaustive
// scorer's exactly, with df = the term's total postings — equal to the
// exhaustive document frequency because block sources refuse to serve
// when tombstones would hide postings.
func (s *Searcher) newBlockCursor(ti int, tb *store.TermBlocks, numDocs int64) (*blockCursor, error) {
	df := float64(tb.Len())
	var idf float64
	if s.UsesBM25() {
		idf = math.Log(1 + (float64(numDocs)-df+0.5)/(df+0.5))
	} else {
		idf = math.Log(1 + float64(numDocs)/df)
	}
	n := 0
	for _, l := range tb.Lists {
		n += l.NumBlocks()
	}
	c := &blockCursor{
		ti:    ti,
		idf:   idf,
		lists: tb.Lists,
		skips: make([]store.BlockSkip, 0, n),
		ubs:   make([]float64, 0, n),
		li:    make([]int32, 0, n),
		bi:    make([]int32, 0, n),
		dec:   -1,
	}
	for liIdx, l := range tb.Lists {
		for b := 0; b < l.NumBlocks(); b++ {
			sk := l.Skip(b)
			ub := s.impactBound(idf, sk.MaxTF)
			c.skips = append(c.skips, sk)
			c.ubs = append(c.ubs, ub)
			c.li = append(c.li, int32(liIdx))
			c.bi = append(c.bi, int32(b))
			if ub > c.ub {
				c.ub = ub
			}
		}
	}
	if err := c.nextGEQ(0); err != nil {
		return nil, err
	}
	return c, nil
}

// loadBlock decodes the current block unless it already is decoded.
func (c *blockCursor) loadBlock() error {
	if c.dec == c.cur {
		return nil
	}
	var err error
	c.docs, c.tfs, err = c.lists[c.li[c.cur]].DecodeBlock(int(c.bi[c.cur]))
	if err != nil {
		return err
	}
	c.dec = c.cur
	c.pi = 0
	c.nDecoded++
	return nil
}

// nextGEQ advances the cursor to the first posting with docID >=
// target, skipping whole blocks by their lastDoc without decoding.
func (c *blockCursor) nextGEQ(target uint32) error {
	for c.cur < len(c.skips) && c.skips[c.cur].LastDoc < target {
		if c.dec != c.cur {
			c.nSkipped++
		}
		c.cur++
	}
	if c.cur >= len(c.skips) {
		c.done = true
		return nil
	}
	if err := c.loadBlock(); err != nil {
		return err
	}
	// The block's lastDoc is >= target, so the scan stays in bounds.
	d := c.docs[c.pi:]
	c.pi += sort.Search(len(d), func(i int) bool { return d[i] >= target })
	c.curDoc = c.docs[c.pi]
	c.curTF = c.tfs[c.pi]
	return nil
}

// next advances the cursor one posting.
func (c *blockCursor) next() error {
	c.pi++
	if c.pi < len(c.docs) {
		c.curDoc = c.docs[c.pi]
		c.curTF = c.tfs[c.pi]
		return nil
	}
	c.cur++
	if c.cur >= len(c.skips) {
		c.done = true
		return nil
	}
	if err := c.loadBlock(); err != nil {
		return err
	}
	c.curDoc = c.docs[0]
	c.curTF = c.tfs[0]
	return nil
}

// shallow finds the block that would contain target (the first block
// with lastDoc >= target) without decoding or moving the cursor, and
// returns that block's score bound and lastDoc. A cursor with no
// postings at or beyond target contributes nothing there and must not
// constrain the skip frontier, hence (0, MaxUint32).
func (c *blockCursor) shallow(target uint32) (ub float64, blockLast uint32) {
	sk := c.skips[c.cur:]
	j := sort.Search(len(sk), func(i int) bool { return sk[i].LastDoc >= target })
	if j == len(sk) {
		return 0, math.MaxUint32
	}
	return c.ubs[c.cur+j], sk[j].LastDoc
}

// topKBlocks is the block-at-a-time TopK driver: it builds one cursor
// per scoring query word and runs the selected evaluator. The second
// return is false when the source cannot serve blocks right now and
// the caller must fall back to the exhaustive scorer.
func (s *Searcher) topKBlocks(ctx context.Context, k int, mode RankMode, words []string) ([]ScoredDoc, bool, error) {
	numDocs := s.NumDocs()
	cursors := make([]*blockCursor, 0, len(words))
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
		c, err := s.newBlockCursor(len(cursors), tb, numDocs)
		if err != nil {
			return nil, false, err
		}
		if !c.done {
			cursors = append(cursors, c)
		}
	}
	rsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageRank)
	var out []ScoredDoc
	var err error
	if mode == RankMaxScore {
		out, err = s.topKMaxScore(k, cursors)
	} else {
		out, err = s.topKBMW(k, cursors)
	}
	if err != nil {
		rsp.End()
		return nil, false, err
	}
	var dec, skp uint64
	for _, c := range cursors {
		dec += c.nDecoded
		skp += c.nSkipped
	}
	rsp.AddItems(int64(len(out)))
	rsp.SetNote(fmt.Sprintf("%s decoded=%d skipped=%d", mode, dec, skp))
	rsp.End()
	s.rankStats.blockQueries.Add(1)
	s.rankStats.blocksDecoded.Add(dec)
	s.rankStats.blocksSkipped.Add(skp)
	return out, true, nil
}

// admit pushes a scored doc into the bounded heap and returns the new
// theta. The strict > test is exact (invariant 2 above): a candidate
// tying the current k-th best always has the larger docID and loses
// the exhaustive tie-break anyway.
func admit(h *docHeap, k int, d ScoredDoc, theta float64) float64 {
	if h.Len() < k {
		heap.Push(h, d)
		if h.Len() == k {
			return (*h)[0].Score
		}
		return theta
	}
	if d.Score > theta {
		heap.Push(h, d)
		heap.Pop(h)
		return (*h)[0].Score
	}
	return theta
}

// heapResults drains the bounded heap into descending-score (ties:
// ascending docID) order, the exhaustive scorer's output shape.
func heapResults(h *docHeap) []ScoredDoc {
	out := make([]ScoredDoc, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(ScoredDoc)
	}
	return out
}

// topKBMW is Block-Max-WAND: cursors sorted by current docID, a pivot
// chosen as the first prefix whose term-level bounds can beat theta,
// then the pivot's block-level bounds consulted before any decode — if
// even the blocks containing the pivot cannot beat theta, every cursor
// in the prefix leaps past the shallowest block boundary without
// decoding anything.
func (s *Searcher) topKBMW(k int, cursors []*blockCursor) ([]ScoredDoc, error) {
	h := &docHeap{}
	heap.Init(h)
	theta := math.Inf(-1)
	order := make([]*blockCursor, len(cursors))
	copy(order, cursors)
	for len(order) > 0 {
		// Re-sorted every round; slices.SortFunc (not sort.Slice) keeps
		// the hot loop allocation-free, and the mostly-sorted input
		// (only advanced cursors moved) makes it nearly linear.
		slices.SortFunc(order, func(a, b *blockCursor) int {
			if a.curDoc != b.curDoc {
				return cmp.Compare(a.curDoc, b.curDoc)
			}
			return a.ti - b.ti
		})
		// Pivot: docs before it appear only in cursors whose combined
		// term bounds cannot reach theta.
		acc := 0.0
		p := -1
		for i, c := range order {
			acc += c.ub
			if boundExceeds(acc, theta) {
				p = i
				break
			}
		}
		if p < 0 {
			break // no remaining doc can beat theta
		}
		pivot := order[p].curDoc
		for p+1 < len(order) && order[p+1].curDoc == pivot {
			p++
		}
		// Block-max refinement: tighten the prefix bound to the blocks
		// actually containing the pivot.
		var bmSum float64
		minLast := uint32(math.MaxUint32)
		for _, c := range order[:p+1] {
			ub, last := c.shallow(pivot)
			bmSum += ub
			if last < minLast {
				minLast = last
			}
		}
		if boundExceeds(bmSum, theta) {
			// Score the pivot. Docs skipped between a prefix cursor's
			// position and the pivot appear only in prefix cursors
			// excluding p, whose bound sum failed the theta test.
			for _, c := range order[:p+1] {
				if c.curDoc < pivot {
					if err := c.nextGEQ(pivot); err != nil {
						return nil, err
					}
				}
			}
			var score float64
			for _, c := range cursors { // term order: bitwise-exact sum
				if !c.done && c.curDoc == pivot {
					score += s.contribution(c, pivot)
				}
			}
			theta = admit(h, k, ScoredDoc{pivot, score}, theta)
			for _, c := range order[:p+1] {
				if !c.done && c.curDoc == pivot {
					if err := c.next(); err != nil {
						return nil, err
					}
				}
			}
		} else {
			// Cursor p sits inside a block covering the pivot, so
			// minLast >= pivot and the skip target strictly advances.
			target := minLast
			if target != math.MaxUint32 {
				target++
			}
			if p+1 < len(order) && order[p+1].curDoc < target {
				target = order[p+1].curDoc
			}
			for _, c := range order[:p+1] {
				if !c.done && c.curDoc < target {
					if err := c.nextGEQ(target); err != nil {
						return nil, err
					}
				}
			}
		}
		live := order[:0]
		for _, c := range order {
			if !c.done {
				live = append(live, c)
			}
		}
		order = live
	}
	return heapResults(h), nil
}

// topKMaxScore is the MaxScore evaluator: terms sorted by their bound,
// the weakest prefix (whose combined bounds cannot reach theta) turned
// non-essential — candidates come only from essential cursors, and
// non-essential lists are probed per candidate, strongest first, with
// early abandonment once even the remaining bounds cannot lift the
// partial score past theta. Non-essential lists are only entered via
// nextGEQ, so their blocks are skipped wholesale.
func (s *Searcher) topKMaxScore(k int, cursors []*blockCursor) ([]ScoredDoc, error) {
	byUB := make([]*blockCursor, len(cursors))
	copy(byUB, cursors)
	slices.SortFunc(byUB, func(a, b *blockCursor) int {
		if a.ub != b.ub {
			return cmp.Compare(a.ub, b.ub)
		}
		return a.ti - b.ti
	})
	ubacc := make([]float64, len(byUB))
	acc := 0.0
	for i, c := range byUB {
		acc += c.ub
		ubacc[i] = acc
	}
	h := &docHeap{}
	heap.Init(h)
	theta := math.Inf(-1)
	e := 0 // byUB[:e] are non-essential
	for {
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
				partial += s.contribution(c, cand)
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
				partial += s.contribution(c, cand)
			}
		}
		if alive {
			// The abandonment sums above ran in bound order; recompute
			// the survivor's score in term order for bitwise equality
			// with the exhaustive scorer (every cursor containing cand
			// is positioned on it now).
			var score float64
			for _, c := range cursors {
				if !c.done && c.curDoc == cand {
					score += s.contribution(c, cand)
				}
			}
			theta = admit(h, k, ScoredDoc{cand, score}, theta)
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
		if e >= len(byUB) {
			break // every term is non-essential: nothing can beat theta
		}
	}
	return heapResults(h), nil
}
