package baselines

import (
	"fmt"
	"time"

	"fastinvert/internal/corpus"
	"fastinvert/internal/encoding"
	"fastinvert/internal/mapreduce"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
)

// SinglePassMR implements McCreadie et al.'s single-pass MapReduce
// indexing (§II): each map task indexes its whole split in memory and
// emits <term, partial postings list>, sending each term once per
// split instead of once per posting, which slashes shuffle volume; the
// reducer merges the partial lists in docID order.
func SinglePassMR(src corpus.Source, reducers int) (*Result, error) {
	files, bases, _, err := loadDocs(src)
	if err != nil {
		return nil, err
	}
	splits := make([]mapreduce.Split, len(files))
	for i := range files {
		splits[i] = mapreduce.Split{DocBase: bases[i], Docs: files[i]}
	}

	p := parser.New(nil)
	// Per-split partial index, flushed when the split's last document
	// is mapped. The runtime calls the mapper per document, so the
	// mapper tracks its split via docID bases.
	partial := make(map[string]*postings.List)
	splitEnd := make(map[uint32]bool, len(files)) // docIDs that end a split
	for i := range files {
		if n := len(files[i]); n > 0 {
			splitEnd[bases[i]+uint32(n)-1] = true
		}
	}
	mapper := func(docID uint32, doc []byte, emit func(string, []byte)) error {
		for _, occ := range parseDocTerms(p, doc) {
			l := partial[occ.term]
			if l == nil {
				l = &postings.List{}
				partial[occ.term] = l
			}
			l.DocIDs = append(l.DocIDs, docID)
			l.TFs = append(l.TFs, occ.tf)
		}
		if splitEnd[docID] {
			for term, l := range partial {
				buf := encoding.PutUvarByte(nil, uint64(l.Len()))
				buf, err := encoding.EncodePostings(buf, l.DocIDs, l.TFs)
				if err != nil {
					return fmt.Errorf("singlepass: %q: %w", term, err)
				}
				emit(term, buf)
			}
			partial = make(map[string]*postings.List)
		}
		return nil
	}
	reducer := func(term string, values [][]byte, emit func(string, []byte)) error {
		// Values are partial lists from different splits; they arrive
		// in emission order, which follows split order because the
		// runtime preserves stable order for equal keys.
		merged := &postings.List{}
		for _, v := range values {
			count, n := encoding.UvarByte(v)
			if n <= 0 {
				return fmt.Errorf("singlepass: bad partial header for %q", term)
			}
			docIDs, tfs, _, err := encoding.DecodePostings(v[n:], int(count))
			if err != nil {
				return fmt.Errorf("singlepass: %q: %w", term, err)
			}
			if err := postings.Concat(merged, &postings.List{DocIDs: docIDs, TFs: tfs}, nil); err != nil {
				return fmt.Errorf("singlepass: %q: %w", term, err)
			}
		}
		buf := encoding.PutUvarByte(nil, uint64(merged.Len()))
		buf, err := encoding.EncodePostings(buf, merged.DocIDs, merged.TFs)
		if err != nil {
			return err
		}
		emit(term, buf)
		return nil
	}

	t0 := time.Now()
	out, err := mapreduce.Run(mapreduce.Config{Reducers: reducers}, splits, mapper, reducer)
	if err != nil {
		return nil, err
	}
	res := &Result{Lists: make(map[string]*postings.List)}
	for _, part := range out.Partitions {
		for _, kv := range part {
			count, n := encoding.UvarByte(kv.Value)
			docIDs, tfs, _, err := encoding.DecodePostings(kv.Value[n:], int(count))
			if err != nil {
				return nil, err
			}
			res.Lists[kv.Key] = &postings.List{DocIDs: docIDs, TFs: tfs}
			for _, tf := range tfs {
				res.Stats.Tokens += int64(tf)
			}
		}
	}
	res.Stats.SerialSec = time.Since(t0).Seconds()
	res.Stats.MapSec = out.Timing.MapSec
	res.Stats.ReduceSec = out.Timing.ReduceSec
	res.Stats.ShuffleBytes = out.Timing.ShuffleB
	for _, f := range files {
		res.Stats.Docs += int64(len(f))
	}
	return res, nil
}
