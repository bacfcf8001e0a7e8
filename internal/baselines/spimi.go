package baselines

import (
	"fmt"
	"sort"
	"time"

	"fastinvert/internal/corpus"
	"fastinvert/internal/encoding"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
)

// spimiRun is one flushed run: terms in sorted order with their
// serialized partial postings, the on-disk image Heinz & Zobel write
// at the end of each memory-bounded pass.
type spimiRun struct {
	terms  []string
	blobs  [][]byte
	counts []int
}

// SPIMI implements Heinz & Zobel's single-pass in-memory indexing
// (§II): documents stream through an in-memory dictionary until the
// memory budget is exhausted, the run is sorted by term and flushed,
// and all runs merge into the final index at the end.
func SPIMI(src corpus.Source, memoryBudget int) (*Result, error) {
	if memoryBudget <= 0 {
		memoryBudget = 8 << 20
	}
	files, bases, _, err := loadDocs(src)
	if err != nil {
		return nil, err
	}
	p := parser.New(nil)
	res := &Result{Lists: make(map[string]*postings.List)}
	t0 := time.Now()

	dict := make(map[string]*postings.List)
	memUse := 0
	var runs []spimiRun

	flush := func() error {
		if len(dict) == 0 {
			return nil
		}
		run := spimiRun{}
		run.terms = make([]string, 0, len(dict))
		for term := range dict {
			run.terms = append(run.terms, term)
		}
		sort.Strings(run.terms)
		for _, term := range run.terms {
			l := dict[term]
			blob, err := encoding.EncodePostings(nil, l.DocIDs, l.TFs)
			if err != nil {
				return fmt.Errorf("spimi: %q: %w", term, err)
			}
			run.blobs = append(run.blobs, blob)
			run.counts = append(run.counts, l.Len())
		}
		runs = append(runs, run)
		dict = make(map[string]*postings.List)
		memUse = 0
		res.Stats.RunsFlushed++
		return nil
	}

	for fi, docs := range files {
		for d, doc := range docs {
			docID := bases[fi] + uint32(d)
			for _, occ := range parseDocTerms(p, doc) {
				l := dict[occ.term]
				if l == nil {
					l = &postings.List{}
					dict[occ.term] = l
					memUse += len(occ.term) + 48
				}
				l.DocIDs = append(l.DocIDs, docID)
				l.TFs = append(l.TFs, occ.tf)
				memUse += 8
				res.Stats.Tokens += int64(occ.tf)
			}
			res.Stats.Docs++
			if memUse > memoryBudget {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	// Merge: runs were produced in document order, so each term's
	// partial lists concatenate across runs in order.
	for _, run := range runs {
		for i, term := range run.terms {
			docIDs, tfs, _, err := encoding.DecodePostings(run.blobs[i], run.counts[i])
			if err != nil {
				return nil, err
			}
			dst := res.Lists[term]
			if dst == nil {
				dst = &postings.List{}
				res.Lists[term] = dst
			}
			if err := postings.Concat(dst, &postings.List{DocIDs: docIDs, TFs: tfs}, nil); err != nil {
				return nil, fmt.Errorf("spimi merge %q: %w", term, err)
			}
		}
	}
	res.Stats.SerialSec = time.Since(t0).Seconds()
	return res, nil
}
