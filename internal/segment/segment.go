package segment

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"fastinvert/internal/postings"
	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
)

// segment is one immutable sealed segment: an open run-format postings
// file plus its sorted dictionary, reference-counted so a compaction
// can unlink the file while in-flight queries keep reading through the
// still-open descriptor.
type segment struct {
	meta SegmentMeta
	run  *store.RunFile
	dict []store.DictEntry
	refs atomic.Int64
}

// openSegment opens and cross-checks a segment's files against its
// manifest entry, counting the segment's reads on rc. Mismatches wrap
// store.ErrCorruptIndex.
func openSegment(dir string, meta SegmentMeta, rc *store.ReadCounters) (*segment, error) {
	run, err := store.OpenRunFile(filepath.Join(dir, meta.File), rc)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", meta.ID, err)
	}
	if run.NumLists() != meta.Lists {
		run.Close()
		return nil, fmt.Errorf("segment %d: %d lists on disk, manifest says %d: %w",
			meta.ID, run.NumLists(), meta.Lists, store.ErrCorruptIndex)
	}
	if run.NumLists() > 0 {
		if first, last := run.DocRange(); first < meta.FirstDoc || last > meta.LastDoc {
			run.Close()
			return nil, fmt.Errorf("segment %d: doc range [%d,%d] outside manifest [%d,%d]: %w",
				meta.ID, first, last, meta.FirstDoc, meta.LastDoc, store.ErrCorruptIndex)
		}
	}
	df, err := os.Open(filepath.Join(dir, meta.Dict))
	if err != nil {
		run.Close()
		return nil, fmt.Errorf("segment %d: %w", meta.ID, err)
	}
	dict, err := store.ReadDictionary(df)
	df.Close()
	if err != nil {
		run.Close()
		return nil, fmt.Errorf("segment %d dictionary: %w", meta.ID, err)
	}
	if len(dict) != run.NumLists() {
		run.Close()
		return nil, fmt.Errorf("segment %d: %d dictionary terms for %d lists: %w",
			meta.ID, len(dict), run.NumLists(), store.ErrCorruptIndex)
	}
	// refs starts at zero: views are the only owners. The current view
	// always references every current segment, so a segment lives
	// until the last view naming it drains.
	return &segment{meta: meta, run: run, dict: dict}, nil
}

func (s *segment) retain() { s.refs.Add(1) }

func (s *segment) release() {
	if s.refs.Add(-1) == 0 {
		s.run.Close()
	}
}

// find resolves a term to its entry in this segment's run file under
// a dict span; ok is false when the segment does not hold the term.
func (s *segment) find(ctx context.Context, coll int32, term string) (re store.RunEntry, ok bool, err error) {
	dsp := telemetry.TraceFrom(ctx).StartSpan(telemetry.ReqStageDict)
	e, ok := store.Lookup(s.dict, coll, term)
	dsp.End()
	if !ok {
		return store.RunEntry{}, false, nil
	}
	re, ok = s.run.Find(uint32(e.Collection), uint32(e.Slot))
	if !ok {
		return store.RunEntry{}, false, fmt.Errorf("segment %d: dictionary slot (%d,%d) has no list: %w",
			s.meta.ID, e.Collection, e.Slot, store.ErrCorruptIndex)
	}
	return re, true, nil
}

// postings returns the term's list in this segment (nil when absent)
// plus its encoded on-disk size.
func (s *segment) postings(coll int32, term string) (*postings.List, int64, error) {
	return s.postingsCtx(context.Background(), coll, term)
}

// postingsCtx is postings under a (possibly traced) context: the list
// fetch flows through store.RunFile.ReadListCtx for pread/decode spans.
func (s *segment) postingsCtx(ctx context.Context, coll int32, term string) (*postings.List, int64, error) {
	re, ok, err := s.find(ctx, coll, term)
	if err != nil || !ok {
		return nil, 0, err
	}
	l, err := s.run.ReadListCtx(ctx, re)
	if err != nil {
		return nil, 0, fmt.Errorf("segment %d: %w", s.meta.ID, err)
	}
	return l, int64(re.Length), nil
}

// blocksCtx returns the term's block-at-a-time view within this
// segment (nil when absent), as store.RunFile.BlocksCtx gives it.
func (s *segment) blocksCtx(ctx context.Context, coll int32, term string) (*store.BlockList, error) {
	re, ok, err := s.find(ctx, coll, term)
	if err != nil || !ok {
		return nil, err
	}
	bl, err := s.run.BlocksCtx(ctx, re)
	if err != nil {
		return nil, fmt.Errorf("segment %d: %w", s.meta.ID, err)
	}
	return bl, nil
}

// view is one immutable read snapshot: the sealed segments in
// ascending doc order, the frozen memtable a seal is writing out (nil
// when none) and the memtable that was live when the view was taken.
// Queries acquire the current view, finish against it, and release it;
// freezes, seal commits and compactions swap in a new view and release
// the old one, which tears down replaced segments once the last
// in-flight query drains.
type view struct {
	segs   []*segment
	frozen *memtable
	mem    *memtable
	gen    uint64
	refs   atomic.Int64
}

// newView takes one reference on every segment; the view's own
// lifetime starts at one reference (the manager's).
func newView(segs []*segment, frozen, mem *memtable, gen uint64) *view {
	for _, s := range segs {
		s.retain()
	}
	v := &view{segs: segs, frozen: frozen, mem: mem, gen: gen}
	v.refs.Store(1)
	return v
}

// mems returns the view's memtables in doc order: the frozen one (nil
// when none), then the live one.
func (v *view) mems() [2]*memtable { return [2]*memtable{v.frozen, v.mem} }

func (v *view) retain() { v.refs.Add(1) }

func (v *view) release() {
	if v.refs.Add(-1) == 0 {
		for _, s := range v.segs {
			s.release()
		}
	}
}
