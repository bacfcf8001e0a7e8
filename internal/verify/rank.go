// rank.go extends the differential harness to ranked retrieval: both
// of search's scorers — the pruned block evaluator behind rank=auto
// and the exhaustive whole-list merge — are run query-for-query
// against referenceTopK, a scorer the harness keeps for itself, over
// the merged pipeline index and over the live index at every
// checkpoint; and every blocked list's skip table is checked against
// the postings it summarizes. Both scorers are exact by construction,
// so the comparison demands bitwise-equal scores in identical order.
package verify

import (
	"context"
	"fmt"
	"math"
	"sort"

	"fastinvert/internal/postings"
	"fastinvert/internal/search"
	"fastinvert/internal/segment"
	"fastinvert/internal/store"
)

// BM25 parameters, restated from search so the reference shares no
// code with what it checks.
const (
	refK1 = 1.2
	refB  = 0.75
)

// referenceTopK is the oracle's oracle: the map-accumulate scorer
// search.TopK was before it became a merge, arithmetic verbatim, fed
// from the harness's own data instead of a search.Source — lists is
// the harness's term -> postings map, numDocs its document count,
// docLens its document lengths (nil ranks by TF-IDF, as an index
// without lengths does). terms are already normalized, stop words
// dropped; a repeated term scores once per occurrence. Selection is a
// full sort by (score descending, docID ascending) cut to k.
func referenceTopK(lists map[string]*postings.List, numDocs int64, docLens []uint32, k int, terms []string) []search.ScoredDoc {
	var avgLen float64
	if len(docLens) > 0 {
		var sum float64
		for _, l := range docLens {
			sum += float64(l)
		}
		avgLen = sum / float64(len(docLens))
	}
	scores := map[uint32]float64{}
	for _, t := range terms {
		l := lists[t]
		if l == nil || l.Len() == 0 {
			continue
		}
		df := float64(l.Len())
		if avgLen > 0 {
			idf := math.Log(1 + (float64(numDocs)-df+0.5)/(df+0.5))
			for i, doc := range l.DocIDs {
				tf := float64(l.TFs[i])
				norm := 1 - refB
				if int(doc) < len(docLens) {
					norm += refB * float64(docLens[doc]) / avgLen
				} else {
					norm += refB
				}
				scores[doc] += idf * tf * (refK1 + 1) / (tf + refK1*norm)
			}
			continue
		}
		idf := math.Log(1 + float64(numDocs)/df)
		for i, doc := range l.DocIDs {
			scores[doc] += float64(l.TFs[i]) * idf
		}
	}
	out := make([]search.ScoredDoc, 0, len(scores))
	for doc, score := range scores {
		out = append(out, search.ScoredDoc{Doc: doc, Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Doc < out[j].Doc
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// docLensFromLists derives every document's length — its surviving
// tokens — from the postings themselves: the sum of its term
// frequencies over all terms.
func docLensFromLists(lists map[string]*postings.List, numDocs int64) []uint32 {
	lens := make([]uint32, numDocs)
	for _, l := range lists {
		for i, doc := range l.DocIDs {
			if int64(doc) < numDocs {
				lens[doc] += l.TFs[i]
			}
		}
	}
	return lens
}

// rankKs are the cut-offs every query of the mix runs at: the single
// best, two ordinary sizes, and one far past any match count, which
// returns (and so compares) the complete ranking.
var rankKs = []int{1, 3, 10, math.MaxInt32}

// rankQueryMix derives a seeded query set from a term -> postings map:
// head terms (long, typically blocked lists), a tail term, multi-term
// combinations, repeated words, an unknown, and stop words only. Only
// terms the searcher's normalization leaves unchanged are eligible, so
// the searcher and the reference resolve the same lists.
func rankQueryMix(s *search.Searcher, lists map[string]*postings.List) [][]string {
	type tdf struct {
		term string
		df   int
	}
	cands := make([]tdf, 0, len(lists))
	for term, l := range lists {
		if norm, stop := s.Normalize(term); stop || norm != term {
			continue
		}
		cands = append(cands, tdf{term, l.Len()})
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].df != cands[j].df {
			return cands[i].df > cands[j].df
		}
		return cands[i].term < cands[j].term
	})
	head := make([]string, 0, 4)
	for i := 0; i < len(cands) && i < 4; i++ {
		head = append(head, cands[i].term)
	}
	tail := cands[len(cands)-1].term
	qs := [][]string{
		{head[0]},
		{tail},
		{head[0], tail},
		{head[0], head[0]},          // duplicate word: contributes twice
		{head[0], head[0], head[0]}, // and three times
		{head[0], "zzzunknownzzz"},
		{"the", "and", "of"}, // stop words only: no results
	}
	if len(head) >= 2 {
		qs = append(qs, head[:2])
	}
	if len(head) >= 4 {
		qs = append(qs, head)
	}
	return qs
}

// rankDiffs runs every query of the mix at every k of rankKs through
// the searcher under mode and returns a TermDiff for each answer that
// is not the reference's: same docs, same order, bitwise-equal scores.
// reference receives the query's normalized scoring terms.
func rankDiffs(s *search.Searcher, mode search.RankMode, queries [][]string,
	reference func(k int, terms []string) []search.ScoredDoc, maxDiffs int) (diffs []TermDiff, truncated bool) {
	if maxDiffs <= 0 {
		maxDiffs = 8
	}
	for _, q := range queries {
		var terms []string
		for _, w := range q {
			if term, stop := s.Normalize(w); !stop && term != "" {
				terms = append(terms, term)
			}
		}
		for _, k := range rankKs {
			d := diffTopK(s, mode, k, q, reference(k, terms))
			if d == nil {
				continue
			}
			if len(diffs) >= maxDiffs {
				return diffs, true
			}
			diffs = append(diffs, *d)
		}
	}
	return diffs, false
}

// diffTopK runs one query under mode and returns a TermDiff unless
// the answer is exactly want.
func diffTopK(s *search.Searcher, mode search.RankMode, k int, q []string, want []search.ScoredDoc) *TermDiff {
	label := fmt.Sprintf("%v k=%d", q, k)
	got, err := s.TopKModeCtx(context.Background(), mode, k, q...)
	if err != nil {
		return &TermDiff{Term: label, Kind: "topk", Detail: fmt.Sprintf("%s: %v", mode, err)}
	}
	if len(got) != len(want) {
		return &TermDiff{Term: label, Kind: "topk",
			Detail: fmt.Sprintf("%s returned %d results, reference %d", mode, len(got), len(want))}
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || got[i].Score != want[i].Score {
			return &TermDiff{Term: label, Kind: "topk",
				Detail: fmt.Sprintf("%s result %d = (%d, %v), reference (%d, %v)",
					mode, i, got[i].Doc, got[i].Score, want[i].Doc, want[i].Score)}
		}
	}
	return nil
}

// blockBoundsDiff checks every term's block view against the postings
// map the run-level read-back produced: per-block counts sum to the
// list length, every tf is bounded by the block's stored MaxTF, and
// docIDs ascend through consecutive blocks with each skip entry's
// LastDoc matching its block's final posting. Where the index carries
// lengths, every blocked list's impacts must have been written against
// their average, and each block's stored impact q must be safe — q/255
// at least the largest tf/(tf + k1*norm) of its postings, restated
// here from docLens — and tight, within one 1/255 quantum of it.
func blockBoundsDiff(idx *store.IndexReader, lists map[string]*postings.List, docLens []uint32, maxDiffs int) *DiffReport {
	if maxDiffs <= 0 {
		maxDiffs = 8
	}
	rep := &DiffReport{Name: "block-bounds", GotTerms: len(lists), WantTerms: len(lists)}
	add := func(term, detail string) bool {
		if len(rep.Diffs) >= maxDiffs {
			rep.Truncated = true
			return false
		}
		rep.Diffs = append(rep.Diffs, TermDiff{Term: term, Kind: "block-bounds", Detail: detail})
		return true
	}
	var avgLen float64
	if len(docLens) > 0 {
		var sum float64
		for _, l := range docLens {
			sum += float64(l)
		}
		avgLen = sum / float64(len(docLens))
	}
	// saturation is a posting's tf/(tf + k1*norm): its BM25 score
	// without idf and the (k1+1) factor.
	saturation := func(tf, doc uint32) float64 {
		f := float64(tf)
		norm := 1 - refB
		if int(doc) < len(docLens) {
			norm += refB * float64(docLens[doc]) / avgLen
		} else {
			norm += refB
		}
		return f / (f + refK1*norm)
	}
	terms := make([]string, 0, len(lists))
	for t := range lists {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, term := range terms {
		want := lists[term]
		tb, err := idx.BlockPostingsCtx(context.Background(), term)
		if err != nil {
			if !add(term, err.Error()) {
				return rep
			}
			continue
		}
		if tb == nil {
			if !add(term, "no block view from merged reader") {
				return rep
			}
			continue
		}
		total, pi := 0, 0
		mismatch := ""
		for _, bl := range tb.Lists {
			prev := int64(-1)
			impacts := avgLen > 0 && bl.NumBlocks() > 1
			if impacts && bl.AvgRef() != avgLen {
				mismatch = fmt.Sprintf("impacts written against average length %v, collection's is %v", bl.AvgRef(), avgLen)
			}
			for b := 0; b < bl.NumBlocks() && mismatch == ""; b++ {
				sk := bl.Skip(b)
				docs, tfs, err := bl.DecodeBlock(b)
				if err != nil {
					mismatch = fmt.Sprintf("block %d: %v", b, err)
					break
				}
				if len(docs) != int(sk.Count) || len(docs) == 0 {
					mismatch = fmt.Sprintf("block %d: %d postings, skip says %d", b, len(docs), sk.Count)
					break
				}
				if docs[len(docs)-1] != sk.LastDoc {
					mismatch = fmt.Sprintf("block %d: last doc %d, skip says %d", b, docs[len(docs)-1], sk.LastDoc)
					break
				}
				sat := 0.0
				for i, doc := range docs {
					if impacts {
						sat = max(sat, saturation(tfs[i], doc))
					}
					if int64(doc) <= prev {
						mismatch = fmt.Sprintf("block %d: doc %d after %d", b, doc, prev)
						break
					}
					prev = int64(doc)
					if tfs[i] > sk.MaxTF {
						mismatch = fmt.Sprintf("block %d: tf %d exceeds stored MaxTF %d", b, tfs[i], sk.MaxTF)
						break
					}
					if pi >= want.Len() || doc != want.DocIDs[pi] || tfs[i] != want.TFs[pi] {
						mismatch = fmt.Sprintf("block %d posting %d: (%d,%d) disagrees with read-back", b, i, doc, tfs[i])
						break
					}
					pi++
				}
				if q := float64(sk.Impact) / 255; mismatch == "" && impacts && (q < sat*(1-1e-12) || q-sat >= 1.0/255) {
					mismatch = fmt.Sprintf("block %d: impact %d/255 = %v for a largest saturation of %v", b, sk.Impact, q, sat)
				}
				total += len(docs)
			}
		}
		if mismatch == "" && total != want.Len() {
			mismatch = fmt.Sprintf("block view holds %d postings, read-back %d", total, want.Len())
		}
		if mismatch != "" && !add(term, mismatch) {
			return rep
		}
	}
	return rep
}

// rankComparisons reopens the merged index (left behind by the last
// mergeAndReadBack pass, codec-selected and block-laid-out) and runs
// the ranked differential — each scorer against referenceTopK over
// lists, docs and the document lengths lists imply — plus the
// skip-table bounds check.
func rankComparisons(dir string, lists map[string]*postings.List, docs int64, maxDiffs int) []Comparison {
	idx, err := store.OpenIndex(dir)
	if err != nil {
		return []Comparison{{Name: "rank", Err: err}}
	}
	defer idx.Close()
	if !idx.MergedActive() {
		return []Comparison{{Name: "rank", Err: fmt.Errorf("verify: merged file not served for rank differential")}}
	}
	s := search.New(idx)
	queries := rankQueryMix(s, lists)
	docLens := docLensFromLists(lists, docs)
	reference := func(k int, terms []string) []search.ScoredDoc {
		return referenceTopK(lists, docs, docLens, k, terms)
	}
	var out []Comparison
	for _, mode := range []search.RankMode{search.RankAuto, search.RankExhaustive} {
		name := "rank-" + mode.String()
		rep := &DiffReport{Name: name, GotTerms: len(queries), WantTerms: len(queries)}
		rep.Diffs, rep.Truncated = rankDiffs(s, mode, queries, reference, maxDiffs)
		out = append(out, Comparison{Name: name, Diff: rep})
	}
	// A merged index serves blocks for every term: an auto query that
	// fell back compared the exhaustive scorer twice.
	if st := s.RankStats(); st.FallbackQueries != 0 || st.BlockQueries == 0 {
		out[0].Diff.Diffs = append(out[0].Diff.Diffs, TermDiff{Term: "(index)", Kind: "topk",
			Detail: fmt.Sprintf("rank=auto over a merged index: %d block queries, %d fallbacks", st.BlockQueries, st.FallbackQueries)})
	}
	return append(out, Comparison{Name: "block-bounds", Diff: blockBoundsDiff(idx, lists, docLens, maxDiffs)})
}

// liveRankDiffs runs the ranked differential against a live manager at
// a checkpoint: both scorers must match referenceTopK over want — the
// serial rebuild of the surviving documents — and their count, by
// TF-IDF as live indexes rank. With no tombstone live rank=auto is
// block evaluation over sealed segments and the memtable
// pseudo-block; with one it is the fallback, and fellBack says so.
func liveRankDiffs(m *segment.Manager, want map[string]*postings.List, docs int64, maxDiffs int) (diffs []TermDiff, fellBack bool) {
	s := search.NewWithSource(m)
	queries := rankQueryMix(s, want)
	reference := func(k int, terms []string) []search.ScoredDoc {
		return referenceTopK(want, docs, nil, k, terms)
	}
	for _, mode := range []search.RankMode{search.RankAuto, search.RankExhaustive} {
		d, _ := rankDiffs(s, mode, queries, reference, maxDiffs)
		diffs = append(diffs, d...)
	}
	return diffs, s.RankStats().FallbackQueries > 0
}
