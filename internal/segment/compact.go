package segment

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fastinvert/internal/store"
	"fastinvert/internal/telemetry"
	"fastinvert/internal/trie"
)

// compactPendingName is the merge output staged inside the directory
// until the commit renames it to its final segment name. A leftover
// from a crashed compaction is unreferenced by the manifest and simply
// overwritten by the next one.
const compactPendingName = "compact.pending"

// Compact folds every sealed segment into one, dropping tombstoned
// postings, via the store package's sharded parallel merge. The long
// phase — reading, remapping, re-encoding — runs without any manager
// lock, against a retained view and a tombstone snapshot; only the
// final commit takes the write lock. Seals may land concurrently:
// their segments survive untouched next to the compacted one, and the
// IDs they reserved at freeze time are never the compaction's.
//
// A no-op when there is at most one segment and nothing to purge.
func (m *Manager) Compact(ctx context.Context) (err error) {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	if m.closed.Load() {
		return store.ErrClosed
	}
	v, err := m.acquire()
	if err != nil {
		return err
	}
	defer v.release()
	segs := v.segs
	dead := m.tomb.Load()
	if len(segs) == 0 || (len(segs) == 1 && !anyDeadIn(segs[0].meta, dead)) {
		return nil
	}
	tr := m.opTrace("compact")
	if tr != nil {
		defer func() { m.finishOp(tr, err) }()
		tr.SetAttr("segments", len(segs))
	}

	// Union dictionary: fresh slots assigned per collection in term
	// order, so the compacted segment's table is sorted and dense.
	msp := tr.StartSpan(telemetry.ReqStageMerge)
	msp.AddItems(int64(len(segs)))
	union, remaps, err := unionDict(segs)
	if err != nil {
		msp.End()
		return err
	}
	sources := make([]store.CompactSource, len(segs))
	for i, s := range segs {
		sources[i] = store.CompactSource{
			Path:  filepath.Join(m.dir, s.meta.File),
			Remap: remaps[i].remap,
		}
	}
	tmp := filepath.Join(m.dir, compactPendingName)
	stats, err := store.CompactRuns(ctx, sources, tmp, store.CompactOptions{
		Codec:   m.opts.Codec,
		Workers: m.opts.CompactWorkers,
		Drop:    dead.has,
	})
	if err != nil {
		msp.End()
		os.Remove(tmp)
		return err
	}
	msp.AddBytes(stats.Bytes)
	tr.SetAttr("read_calls", stats.ReadCalls)
	tr.SetAttr("read_bytes", stats.ReadBytes)

	// Keep only dictionary terms whose remapped list survived the
	// purge — fully-deleted terms vanish from both table and dict.
	rf, err := store.OpenRunFile(tmp, nil)
	if err != nil {
		msp.End()
		os.Remove(tmp)
		return err
	}
	filtered := union[:0]
	for _, e := range union {
		if _, ok := rf.Find(uint32(e.Collection), uint32(e.Slot)); ok {
			filtered = append(filtered, e)
		}
	}
	rf.Close()
	msp.End()

	// Commit: brief, under the write lock, no heavy I/O.
	csp := tr.StartSpan(telemetry.ReqStageCommit)
	defer csp.End()
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	if m.closed.Load() {
		os.Remove(tmp)
		return store.ErrClosed
	}
	id := m.nextSeg
	m.nextSeg++
	meta := SegmentMeta{
		ID:       id,
		File:     segFileName(id),
		Dict:     dictFileName(id),
		FirstDoc: segs[0].meta.FirstDoc,
		LastDoc:  segs[len(segs)-1].meta.LastDoc,
		Lists:    stats.Lists,
		Bytes:    stats.Bytes,
	}
	meta.Docs = meta.LastDoc - meta.FirstDoc + 1
	if err := os.Rename(tmp, filepath.Join(m.dir, meta.File)); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := writeDictFile(m.dir, meta.Dict, filtered); err != nil {
		os.Remove(filepath.Join(m.dir, meta.File))
		return err
	}
	seg, err := openSegment(m.dir, meta, &m.reads)
	if err != nil {
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return err
	}
	inputs := make(map[uint64]bool, len(segs))
	for _, s := range segs {
		inputs[s.meta.ID] = true
	}
	newMetas := []SegmentMeta{meta}
	for _, sm := range m.man.Segments {
		if !inputs[sm.ID] {
			newMetas = append(newMetas, sm)
		}
	}
	sort.Slice(newMetas, func(i, j int) bool { return newMetas[i].FirstDoc < newMetas[j].FirstDoc })
	// Tombstones physically purged from the compacted range come off
	// the bitmap; deletions that raced in after the snapshot stay. The
	// manifest must be saved with them already counted as purged, or a
	// reopen reads the old count and NumDocs — every idf — is off by
	// this compaction's purge until the next manifest write.
	cur := m.tomb.Load()
	nb := cur.without(dead, meta.FirstDoc, meta.LastDoc)
	newMan := &Manifest{
		Version:  manifestVersion,
		NextDoc:  m.man.NextDoc,
		NextSeg:  m.nextSeg,
		Purged:   m.man.Purged + cur.deleted - nb.deleted,
		Segments: newMetas,
	}
	if err := newMan.save(m.dir); err != nil {
		seg.run.Close()
		os.Remove(filepath.Join(m.dir, meta.File))
		os.Remove(filepath.Join(m.dir, meta.Dict))
		return err
	}
	if err := saveTombstones(m.dir, nb, newMan.NextDoc); err != nil {
		return err
	}

	gen := m.gen.Add(1)
	m.mu.Lock()
	old := m.cur
	m.man = newMan
	newSegs := []*segment{seg}
	for _, s := range old.segs {
		if !inputs[s.meta.ID] {
			newSegs = append(newSegs, s)
		}
	}
	sort.Slice(newSegs, func(i, j int) bool {
		return newSegs[i].meta.FirstDoc < newSegs[j].meta.FirstDoc
	})
	m.cur = newView(newSegs, old.frozen, old.mem, gen)
	m.mu.Unlock()
	// Only now may the purged bits go: readers load the bitmap first
	// and acquire their view second, so whoever sees the shorter bitmap
	// is certain to get the view without the purged postings, and the
	// longer one is harmless over either view.
	m.tomb.Store(nb)
	m.purged.Store(newMan.Purged)
	old.release()
	m.compactions.Add(1)

	// Unlink the replaced files: in-flight queries hold the open
	// descriptors, so their reads complete against the unlinked inodes.
	for _, s := range segs {
		os.Remove(filepath.Join(m.dir, s.meta.File))
		os.Remove(filepath.Join(m.dir, s.meta.Dict))
	}
	return nil
}

// anyDeadIn reports whether the bitmap tombstones any doc in the
// segment's range.
func anyDeadIn(meta SegmentMeta, dead *bitmap) bool {
	if dead == nil || dead.deleted == 0 {
		return false
	}
	for d := meta.FirstDoc; d <= meta.LastDoc; d++ {
		if dead.has(d) {
			return true
		}
		if d == ^uint32(0) {
			break
		}
	}
	return false
}

// unionDict merges the segments' sorted dictionaries into one
// deduplicated dictionary with fresh dense slots (per collection, in
// term order) and returns, per segment, the remap from its local
// (collection, slot) keys onto the union slots. Every input is already
// in (collection, term) order, so the union is a k-way merge of them.
func unionDict(segs []*segment) ([]store.DictEntry, []*slotRemap, error) {
	remaps := make([]*slotRemap, len(segs))
	longest := 0
	for i, s := range segs {
		r, err := newSlotRemap(s)
		if err != nil {
			return nil, nil, err
		}
		remaps[i] = r
		longest = max(longest, len(s.dict))
	}
	union := make([]store.DictEntry, 0, longest)
	heads := make([]int, len(segs))
	var next int32
	for {
		var least *store.DictEntry
		for i, s := range segs {
			if h := heads[i]; h < len(s.dict) && (least == nil || store.CompareDictEntries(s.dict[h], *least) < 0) {
				least = &s.dict[h]
			}
		}
		if least == nil {
			return union, remaps, nil
		}
		if n := len(union); n == 0 || union[n-1].Collection != least.Collection {
			next = 0
		}
		e := store.DictEntry{Term: least.Term, Collection: least.Collection, Slot: next}
		for i, s := range segs {
			if h := heads[i]; h < len(s.dict) && s.dict[h].Collection == e.Collection && s.dict[h].Term == e.Term {
				remaps[i].set(s.dict[h], next)
				heads[i]++
			}
		}
		union = append(union, e)
		next++
	}
}

// slotRemap maps one segment's (collection, slot) keys onto union
// slots through dense tables laid end to end: collection c's local
// slots index slots[base[c]:base[c+1]], which hold union slot + 1, or
// 0 for a local slot the segment does not use (a compaction's purge
// leaves such gaps).
type slotRemap struct {
	base  []int32
	slots []uint32
}

// newSlotRemap sizes a segment's remap tables by its dictionary.
func newSlotRemap(s *segment) (*slotRemap, error) {
	r := &slotRemap{base: make([]int32, trie.NumCollections+1)}
	for _, e := range s.dict {
		if !trie.Valid(int(e.Collection)) || e.Slot < 0 {
			return nil, fmt.Errorf("segment %d: dictionary entry (%d,%d): %w",
				s.meta.ID, e.Collection, e.Slot, store.ErrCorruptIndex)
		}
		r.base[e.Collection+1] = max(r.base[e.Collection+1], e.Slot+1)
	}
	for c := 0; c < trie.NumCollections; c++ {
		// A slot with no list behind it would size a table by a corrupt
		// number.
		if n := r.base[c+1]; n > 0 {
			if _, ok := s.run.Find(uint32(c), uint32(n-1)); !ok {
				return nil, fmt.Errorf("segment %d: dictionary slot (%d,%d) has no list: %w",
					s.meta.ID, c, n-1, store.ErrCorruptIndex)
			}
		}
		r.base[c+1] += r.base[c]
	}
	r.slots = make([]uint32, r.base[trie.NumCollections])
	return r, nil
}

func (r *slotRemap) set(e store.DictEntry, union int32) {
	r.slots[r.base[e.Collection]+e.Slot] = uint32(union) + 1
}

// remap is the store.CompactSource callback.
func (r *slotRemap) remap(coll, slot uint32) (uint32, bool) {
	if int(coll) >= trie.NumCollections {
		return 0, false
	}
	lo, hi := r.base[coll], r.base[coll+1]
	if int64(slot) >= int64(hi-lo) {
		return 0, false
	}
	n := r.slots[lo+int32(slot)]
	return n - 1, n != 0
}

// writeDictFile atomically writes a segment dictionary.
func writeDictFile(dir, name string, entries []store.DictEntry) error {
	var buf bytes.Buffer
	if err := store.WriteDictionary(&buf, entries); err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, name), buf.Bytes())
}
