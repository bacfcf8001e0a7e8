// Package search provides query evaluation over indexes built by the
// engine: normalized term lookup, Boolean conjunction and disjunction
// over postings lists, and TF-IDF ranked retrieval. It is the
// downstream-consumer layer the inverted files exist for, and doubles
// as an end-to-end exerciser of the run-file format.
package search

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"fastinvert/internal/postings"
	"fastinvert/internal/stem"
	"fastinvert/internal/stopwords"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// BM25 parameters (standard Robertson defaults).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Typed query errors, matchable with errors.Is.
var (
	// ErrNotPositional reports a phrase query against an index built
	// without positions (Options.Positional).
	ErrNotPositional = errors.New("search: phrase queries need a positional index")

	// ErrInvalidK reports a non-positive k passed to ranked retrieval.
	ErrInvalidK = errors.New("search: k must be positive")
)

// Source is what a Searcher needs from an index: whole-list and
// block-at-a-time postings lookup plus the metadata driving IDF and
// BM25. store.IndexReader and segment.Manager implement it; a cache
// installed on either sits beneath it, in the run files they read.
// Every per-term fetch receives the query context, so a
// telemetry.RequestTrace it carries flows down to the
// cache/pread/decode leaves.
type Source interface {
	PostingsCtx(ctx context.Context, term string) (*postings.List, error)

	// BlockPostingsCtx serves the block evaluators: the parsed skip
	// tables with codec bodies left undecoded. (nil, nil) means block
	// evaluation is unavailable for the current index state (no merged
	// file, live tombstones) and the caller must fall back to exhaustive
	// scoring; a non-nil empty TermBlocks means the term does not occur.
	BlockPostingsCtx(ctx context.Context, term string) (*store.TermBlocks, error)

	// NumDocs is the collection size IDF is computed from, consulted on
	// every query so it tracks a live index as documents come and go.
	NumDocs() int64
	DocLens() []uint32
	Dictionary() []store.DictEntry
}

// Searcher evaluates queries against one opened index.
//
// Concurrency: a Searcher is safe for concurrent use, provided its
// Source is (store.IndexReader and segment.Manager both are): apart
// from the rank mode, its counters and the pool of per-query scratch
// it is immutable after construction.
type Searcher struct {
	idx     Source
	stop    *stopwords.Set
	docLens []uint32 // optional, enables BM25 length normalization
	avgLen  float64
	minNorm float64 // smallest BM25 length norm any doc can have

	rankMode  atomic.Int32 // RankMode, read once per TopK call
	rankStats rankCounters
	scratch   sync.Pool // *rankScratch, see blockrank.go
}

// New wraps an opened index. The document count for IDF comes from the
// index's docID-range map; when the index carries document lengths,
// ranked retrieval uses BM25 instead of plain TF-IDF.
func New(idx *store.IndexReader) *Searcher { return NewWithSource(idx) }

// NewWithSource wraps any Source — a *store.IndexReader or a
// *segment.Manager.
func NewWithSource(idx Source) *Searcher {
	s := &Searcher{idx: idx, stop: stopwords.Default()}
	if lens := idx.DocLens(); len(lens) > 0 {
		s.docLens = lens
		var sum float64
		minLen := lens[0]
		for _, l := range lens {
			sum += float64(l)
			if l < minLen {
				minLen = l
			}
		}
		s.avgLen = sum / float64(len(lens))
		// Docs beyond docLens get norm exactly 1, and minLen <= avgLen
		// keeps minNorm <= 1, so minNorm lower-bounds every norm.
		s.minNorm = 1 - bm25B + bm25B*float64(minLen)/s.avgLen
	}
	return s
}

// UsesBM25 reports whether ranked retrieval applies BM25 length
// normalization (requires an index written with document lengths).
func (s *Searcher) UsesBM25() bool { return s.avgLen > 0 }

// NumDocs reports the collection size used for IDF, as the Source
// reports it now.
func (s *Searcher) NumDocs() int64 { return s.idx.NumDocs() }

// Normalize applies the indexing pipeline's normalization to a query
// word; stop reports whether the word is a stop word (and therefore
// unindexed).
func (s *Searcher) Normalize(word string) (term string, stop bool) {
	b := stem.Normalize(word)
	return string(b), s.stop.Contains(b)
}

// Postings fetches the normalized word's postings list (empty for stop
// words and unknown terms).
func (s *Searcher) Postings(word string) (*postings.List, error) {
	return s.PostingsCtx(context.Background(), word)
}

// PostingsCtx is Postings honoring ctx cancellation.
func (s *Searcher) PostingsCtx(ctx context.Context, word string) (*postings.List, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	term, stop := s.Normalize(word)
	if stop || term == "" {
		return &postings.List{}, nil
	}
	return s.idx.PostingsCtx(ctx, term)
}

// And returns the docIDs containing every word (stop words are
// ignored; if all words are stop words the result is empty).
func (s *Searcher) And(words ...string) ([]uint32, error) {
	return s.AndCtx(context.Background(), words...)
}

// AndCtx is And honoring ctx: cancellation or deadline expiry between
// per-term postings fetches aborts the query with ctx.Err().
func (s *Searcher) AndCtx(ctx context.Context, words ...string) ([]uint32, error) {
	var lists []*postings.List
	for _, w := range words {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		term, stop := s.Normalize(w)
		if stop || term == "" {
			continue
		}
		l, err := s.idx.PostingsCtx(ctx, term)
		if err != nil {
			return nil, err
		}
		if l.Len() == 0 {
			return nil, nil
		}
		lists = append(lists, l)
	}
	if len(lists) == 0 {
		return nil, nil
	}
	msp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageMerge)
	msp.AddItems(int64(len(lists)))
	defer msp.End()
	// Intersect smallest-first to keep the candidate set minimal. out is
	// this call's own copy of the shortest list; the source's lists may
	// be shared with a cache and are only read.
	slices.SortFunc(lists, func(a, b *postings.List) int { return a.Len() - b.Len() })
	out := append([]uint32(nil), lists[0].DocIDs...)
	for _, l := range lists[1:] {
		out = intersect(out, l.DocIDs)
		if len(out) == 0 {
			return nil, nil
		}
	}
	return out, nil
}

// gallopRatio is how many times longer than acc the other list must be
// before intersect stops stepping through it and starts skipping: up
// to it a linear merge's one comparison per element beats a search per
// candidate. Measured on random lists of 20 to 3,000 candidates, the
// two cross between 4x and 6x.
const gallopRatio = 4

// intersect narrows acc to the docIDs that other also holds and returns
// the narrowed prefix. Both lists are strictly ascending. acc is the
// only slice written (survivors move to its front); other is only read,
// whichever of the two is longer. A linear merge when other is within
// gallopRatio of acc's length, galloping otherwise: from where the last
// candidate left off in other, an exponential probe and a binary search
// inside the bracket it finds.
func intersect(acc, other []uint32) []uint32 {
	out := acc[:0]
	if len(other) > gallopRatio*len(acc) {
		j := 0
		for _, doc := range acc {
			j = gallop(other, j, doc)
			if j == len(other) {
				break
			}
			if other[j] == doc {
				out = append(out, doc)
				j++
			}
		}
		return out
	}
	for i, j := 0, 0; i < len(acc) && j < len(other); {
		switch a, b := acc[i], other[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	return out
}

// gallop returns the first index at or after from whose element is at
// least target, len(l) if there is none: steps of 1, 2, 4, … until one
// lands at or beyond the target, then a binary search between the last
// two landings.
func gallop(l []uint32, from int, target uint32) int {
	if from >= len(l) || l[from] >= target {
		return from
	}
	lo, step := from, 1 // l[lo] < target throughout
	for lo+step < len(l) && l[lo+step] < target {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(l)) // hi == len(l) or l[hi] >= target
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); l[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// union returns a new ascending, duplicate-free list of the docIDs in
// either strictly ascending list; neither input is written.
func union(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x <= y {
			out = append(out, x)
			i++
		} else {
			out = append(out, y)
		}
		if y <= x {
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Or returns the docIDs containing any word, in ascending order.
func (s *Searcher) Or(words ...string) ([]uint32, error) {
	return s.OrCtx(context.Background(), words...)
}

// OrCtx is Or honoring ctx cancellation between per-term fetches. The
// answer is a fold of two-list unions, so it is the caller's own slice
// even when one word matched.
func (s *Searcher) OrCtx(ctx context.Context, words ...string) ([]uint32, error) {
	var lists []*postings.List
	for _, w := range words {
		l, err := s.PostingsCtx(ctx, w)
		if err != nil {
			return nil, err
		}
		lists = append(lists, l)
	}
	msp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageMerge)
	out := []uint32{}
	for _, l := range lists {
		out = union(out, l.DocIDs)
	}
	msp.AddItems(int64(len(out)))
	msp.End()
	return out, nil
}

// Phrase returns the docIDs containing the words as a phrase: each
// non-stop word at its original token offset relative to the others
// (stop words inside the phrase are skipped but still occupy a
// position, the standard convention). Requires a positional index.
func (s *Searcher) Phrase(words ...string) ([]uint32, error) {
	return s.PhraseCtx(context.Background(), words...)
}

// PhraseCtx is Phrase honoring ctx cancellation between per-term
// fetches.
func (s *Searcher) PhraseCtx(ctx context.Context, words ...string) ([]uint32, error) {
	type part struct {
		offset uint32
		list   *postings.List
	}
	var parts []part
	for i, w := range words {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		term, stop := s.Normalize(w)
		if stop || term == "" {
			continue
		}
		l, err := s.idx.PostingsCtx(ctx, term)
		if err != nil {
			return nil, err
		}
		if l.Len() == 0 {
			return nil, nil
		}
		if !l.Positional() {
			return nil, ErrNotPositional
		}
		parts = append(parts, part{uint32(i), l})
	}
	if len(parts) == 0 {
		return nil, nil
	}
	if len(parts) == 1 {
		return append([]uint32(nil), parts[0].list.DocIDs...), nil
	}
	msp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageMerge)
	msp.AddItems(int64(len(parts)))
	defer msp.End()

	// Anchor on the first part; every candidate position p must have
	// p + (offset_k - offset_0) present in part k's positions.
	anchor := parts[0]
	var out []uint32
	for i, doc := range anchor.list.DocIDs {
		otherPos := make([][]uint32, 0, len(parts)-1)
		ok := true
		for _, pk := range parts[1:] {
			j := sort.Search(len(pk.list.DocIDs), func(j int) bool {
				return pk.list.DocIDs[j] >= doc
			})
			if j >= len(pk.list.DocIDs) || pk.list.DocIDs[j] != doc {
				ok = false
				break
			}
			otherPos = append(otherPos, pk.list.Positions[j])
		}
		if !ok {
			continue
		}
	scan:
		for _, p := range anchor.list.Positions[i] {
			for k, pk := range parts[1:] {
				want := p + pk.offset - anchor.offset
				ps := otherPos[k]
				j := sort.Search(len(ps), func(j int) bool { return ps[j] >= want })
				if j >= len(ps) || ps[j] != want {
					continue scan
				}
			}
			out = append(out, doc)
			break
		}
	}
	return out, nil
}

// MatchPrefix returns up to limit indexed terms starting with the
// given prefix, in lexicographic order — the dictionary's front-coded
// (collection, term) layout keeps same-prefix terms adjacent, so the
// scan is a binary search per candidate collection.
func (s *Searcher) MatchPrefix(prefix string, limit int) []string {
	if limit <= 0 {
		return nil
	}
	var out []string
	seen := map[string]struct{}{}
	for _, e := range s.idx.Dictionary() {
		if len(e.Term) >= len(prefix) && e.Term[:len(prefix)] == prefix {
			if _, dup := seen[e.Term]; dup {
				continue
			}
			seen[e.Term] = struct{}{}
			out = append(out, e.Term)
		}
	}
	sort.Strings(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// ScoredDoc is one ranked result.
type ScoredDoc struct {
	Doc   uint32
	Score float64
}

// TopK ranks documents matching any query word. With document lengths
// in the index, the score is BM25:
//
//	idf(t) * tf*(k1+1) / (tf + k1*(1-b+b*len(d)/avglen))
//
// otherwise plain TF-IDF (tf * ln(1+N/df)). Results are sorted by
// descending score, ties by ascending docID.
func (s *Searcher) TopK(k int, words ...string) ([]ScoredDoc, error) {
	return s.TopKCtx(context.Background(), k, words...)
}

// TopKCtx is TopK honoring ctx cancellation between per-term fetches.
func (s *Searcher) TopKCtx(ctx context.Context, k int, words ...string) ([]ScoredDoc, error) {
	return s.TopKModeCtx(ctx, RankMode(s.rankMode.Load()), k, words...)
}

// TopKModeCtx is TopKCtx under an explicit evaluation strategy,
// overriding the Searcher-level mode for this call only — the
// per-request escape hatch concurrent servers need, since SetRankMode
// is shared state.
func (s *Searcher) TopKModeCtx(ctx context.Context, mode RankMode, k int, words ...string) ([]ScoredDoc, error) {
	if k <= 0 {
		return nil, ErrInvalidK
	}
	sc := s.getScratch()
	defer s.putScratch(sc)
	if mode != RankExhaustive {
		out, ok, err := s.topKBlocks(ctx, sc, k, words)
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
		s.rankStats.fallbackQueries.Add(1)
	}
	return s.topKExhaustive(ctx, sc, k, words)
}

// listHead is one query word's whole postings list in the exhaustive
// merge: what is left of it, and the word's idf.
type listHead struct {
	docs, tfs []uint32
	idf       float64
}

// topKExhaustive is the whole-list scorer, and the oracle the pruned
// evaluator is held to: it knows nothing of blocks, cursors or skip
// tables. It merges the words' lists document-at-a-time — smallest
// head docID next, that document's contributions summed in query-word
// order (a repeated word has a head per occurrence, so it scores once
// per occurrence) — and offers each to the bounded heap. DocIDs arrive
// ascending, so the heap's strict admission test keeps the smaller
// docID on a score tie.
func (s *Searcher) topKExhaustive(ctx context.Context, sc *rankScratch, k int, words []string) ([]ScoredDoc, error) {
	numDocs := s.NumDocs()
	for _, w := range words {
		l, err := s.PostingsCtx(ctx, w)
		if err != nil {
			return nil, err
		}
		if l.Len() == 0 {
			continue
		}
		sc.heads = append(sc.heads, listHead{docs: l.DocIDs, tfs: l.TFs, idf: s.idf(numDocs, l.Len())})
	}
	heads := sc.heads
	rsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageRank)
	h := &sc.heap
	theta := math.Inf(-1)
	scored := int64(0)
	for {
		var doc uint32
		found := false
		for i := range heads {
			if hd := &heads[i]; len(hd.docs) > 0 && (!found || hd.docs[0] < doc) {
				doc = hd.docs[0]
				found = true
			}
		}
		if !found {
			break
		}
		var score float64
		for i := range heads {
			if hd := &heads[i]; len(hd.docs) > 0 && hd.docs[0] == doc {
				score += s.score(hd.idf, hd.tfs[0], doc)
				hd.docs, hd.tfs = hd.docs[1:], hd.tfs[1:]
			}
		}
		scored++
		theta = h.admit(k, ScoredDoc{doc, score}, theta)
	}
	rsp.AddItems(scored)
	out := h.results()
	rsp.End()
	return out, nil
}

// topHeap is the bounded result heap both scorers share: a min-heap by
// (score, then reversed docID), so the weakest kept result is on top
// and draining it yields ascending relevance. It grows by append as
// results arrive and is never sized by k, which the caller chose.
type topHeap []ScoredDoc

// weaker orders results worst first: lower score, then larger docID.
func weaker(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// admit offers a scored doc to the heap bounded at k and returns the
// new theta, the k-th best score once k results are held (-Inf
// before). Callers offer docIDs in ascending order, which makes the
// strict > test exact: a candidate tying the current k-th best has the
// larger docID and loses the tie-break anyway.
func (h *topHeap) admit(k int, d ScoredDoc, theta float64) float64 {
	hp := *h
	switch {
	case len(hp) < k:
		hp = append(hp, d)
		for i := len(hp) - 1; i > 0; {
			parent := (i - 1) / 2
			if !weaker(hp[i], hp[parent]) {
				break
			}
			hp[i], hp[parent] = hp[parent], hp[i]
			i = parent
		}
		*h = hp
		if len(hp) < k {
			return theta
		}
	case d.Score > theta:
		hp[0] = d
		hp.down(0)
	default:
		return theta
	}
	return hp[0].Score
}

// down restores the heap below i.
func (h topHeap) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && weaker(h[r], h[child]) {
			child = r
		}
		if !weaker(h[child], h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// results drains the heap into a fresh slice in descending-score
// (ties: ascending docID) order.
func (h *topHeap) results() []ScoredDoc {
	hp := *h
	out := make([]ScoredDoc, len(hp))
	for n := len(hp) - 1; n >= 0; n-- {
		out[n] = hp[0]
		hp[0] = hp[n]
		hp = hp[:n]
		hp.down(0)
	}
	*h = hp
	return out
}
