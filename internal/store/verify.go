package store

import (
	"context"
	"fmt"

	"fastinvert/internal/encoding"
)

// VerifyReport summarizes an index integrity check.
type VerifyReport struct {
	Runs        int
	Lists       int
	Postings    int64
	Terms       int
	Docs        int // from the doc table, 0 when absent
	HasDocLens  bool
	HasDocTable bool
	// MergedPresent reports a merged file that is recorded by its
	// sidecar AND passed validation (size, CRC, table order). A torn or
	// tampered merged file fails Verify with ErrCorruptIndex instead.
	MergedPresent bool
	MergedLists   int // lists in the validated merged file, 0 when absent
	// MergedCodecs counts merged lists per codec name, nil when no
	// merged file is present.
	MergedCodecs map[string]int
}

// Verify checks the structural integrity of a built index directory:
// every run file parses with a valid checksum, every partial list
// decodes with strictly ascending docIDs inside the run's declared doc
// range, run doc ranges are disjoint and ascending, every dictionary
// entry's (collection, slot) appears in at least one run (unless it
// only occurred in runs that were discarded — impossible for
// engine-built indexes), the dictionary is canonically ordered, and
// the optional doc-length/doc-table files are consistent with each
// other. When a merged sidecar exists the merged file must validate
// and agree with the runs: same keys, same per-key posting counts,
// sorted lists.
func Verify(dir string) (*VerifyReport, error) {
	rep := &VerifyReport{}
	// Every list is read exactly once, so nothing is worth caching.
	r, err := OpenIndexWith(dir, ReaderOptions{CacheBytes: 1})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	ctx := context.Background()
	rep.Terms = r.Terms()

	// A sidecar that exists but whose merged file fails validation is
	// corruption, even though the reader itself degrades to per-run
	// assembly.
	if err := r.MergedErr(); err != nil {
		return rep, err
	}

	// Dictionary order and uniqueness.
	for i := 1; i < len(r.dict); i++ {
		p, c := r.dict[i-1], r.dict[i]
		if c.Collection < p.Collection ||
			(c.Collection == p.Collection && c.Term <= p.Term) {
			return rep, fmt.Errorf("store: dictionary disorder at entry %d (%q)", i, c.Term)
		}
	}
	known := make(map[uint64]bool, len(r.dict))
	for _, e := range r.dict {
		known[uint64(uint32(e.Collection))<<32|uint64(uint32(e.Slot))] = true
	}

	counts := make(map[uint64]int64, len(r.dict)) // per-key postings across runs
	var prevLast uint32
	var claimed bool // an earlier run holds postings
	for _, rm := range r.runs {
		// A run without lists — a container file with no document, or
		// none but stop words — holds no docID, and the one-document
		// range it is written with belongs to its successor.
		if rm.Lists > 0 {
			if claimed && rm.FirstDoc <= prevLast {
				return rep, fmt.Errorf("store: run %s doc range overlaps previous", rm.File)
			}
			prevLast, claimed = rm.LastDoc, true
		}
		rf, err := r.runFile(rm)
		if err != nil {
			return rep, err
		}
		rep.Runs++
		for _, e := range rf.entries {
			l, err := rf.ReadListCtx(ctx, e)
			if err != nil {
				return rep, fmt.Errorf("store: %s list (%d,%d): %w", rm.File, e.Collection, e.Slot, err)
			}
			docIDs := l.DocIDs
			for j, d := range docIDs {
				if j > 0 && d <= docIDs[j-1] {
					return rep, fmt.Errorf("store: %s list (%d,%d) unsorted", rm.File, e.Collection, e.Slot)
				}
				if d < rm.FirstDoc || d > rm.LastDoc {
					return rep, fmt.Errorf("store: %s doc %d outside range [%d,%d]",
						rm.File, d, rm.FirstDoc, rm.LastDoc)
				}
			}
			rep.Lists++
			rep.Postings += int64(len(docIDs))
			counts[uint64(e.Collection)<<32|uint64(e.Slot)] += int64(len(docIDs))
		}
	}
	for key := range known {
		if counts[key] == 0 {
			return rep, fmt.Errorf("store: dictionary slot (%d,%d) has no postings in any run",
				uint32(key>>32), uint32(key))
		}
	}
	for key := range counts {
		if !known[key] {
			return rep, fmt.Errorf("store: postings for unknown slot (%d,%d)",
				uint32(key>>32), uint32(key))
		}
	}

	// Merged file: already size/CRC/order-validated at open; check it
	// agrees with the runs list for list.
	if m := r.mergedFile(); m != nil {
		if len(m.entries) != len(counts) {
			return rep, fmt.Errorf("store: merged file has %d lists, runs have %d keys: %w",
				len(m.entries), len(counts), ErrCorruptIndex)
		}
		rep.MergedCodecs = make(map[string]int)
		for _, e := range m.entries {
			key := uint64(e.Collection)<<32 | uint64(e.Slot)
			if counts[key] != int64(e.Count) {
				return rep, fmt.Errorf("store: merged list (%d,%d) has %d postings, runs have %d: %w",
					e.Collection, e.Slot, e.Count, counts[key], ErrCorruptIndex)
			}
			l, err := m.ReadListCtx(ctx, e)
			if err != nil {
				return rep, fmt.Errorf("store: merged list (%d,%d): %w", e.Collection, e.Slot, err)
			}
			if c, err := encoding.Lookup(e.Codec()); err == nil {
				rep.MergedCodecs[c.Name()]++
			}
			for j := 1; j < len(l.DocIDs); j++ {
				if l.DocIDs[j] <= l.DocIDs[j-1] {
					return rep, fmt.Errorf("store: merged list (%d,%d) unsorted: %w",
						e.Collection, e.Slot, ErrCorruptIndex)
				}
			}
		}
		rep.MergedPresent = true
		rep.MergedLists = len(m.entries)
	}

	// Optional files.
	rep.HasDocLens = r.docLens != nil
	rep.HasDocTable = r.docLocs != nil
	rep.Docs = len(r.docLocs)
	if rep.HasDocLens && rep.HasDocTable && len(r.docLens) != len(r.docLocs) {
		return rep, fmt.Errorf("store: doclens (%d) and doctable (%d) disagree",
			len(r.docLens), len(r.docLocs))
	}
	return rep, nil
}
