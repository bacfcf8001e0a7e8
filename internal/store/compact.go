package store

import (
	"bufio"
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fastinvert/internal/encoding"
	"fastinvert/internal/postings"
)

// This file holds the shared sharded k-way merge core behind both
// IndexReader.Merge (the paper's post-processing merge into
// merged.post) and CompactRuns (LSM segment compaction): the sorted
// key space is partitioned into contiguous shards merged by concurrent
// workers, and a single writer drains shards strictly in key order so
// the output bytes never depend on scheduling. Compaction additionally
// remaps segment-local dictionary slots into a union slot space and
// drops tombstoned documents, which can leave keys with no surviving
// postings — the reserved table is shrunk in place when that happens.

// merger is one merge invocation's configuration: read-only cursors
// over the input files, the output codec selector, and the optional
// tombstone filter. Its reads are bulk I/O, not queries: they are
// counted in MergeStats, not on the files' ReadPath.
type merger struct {
	cursors []*mergeCursor
	sel     encoding.Selector
	drop    func(doc uint32) bool // nil keeps every posting
}

// mergeCursor is one input's table in merge-key order: keys holds the
// merge key of every entry — (collection<<32 | slot) after any slot
// remap — strictly ascending, and order the table index each key came
// from. A table already in key order (a merged file, a compacted
// segment, a key-ordered run) has a nil order: position i is entry i.
// Read-only during the merge, so the same cursors serve every shard
// concurrently.
type mergeCursor struct {
	rf    *RunFile
	keys  []uint64
	order []uint32
}

// entry returns the i-th entry in key order.
func (c *mergeCursor) entry(i int) RunEntry {
	if c.order != nil {
		i = int(c.order[i])
	}
	return c.rf.entries[i]
}

// newMergeCursor builds a cursor over rf; a nil remap is the identity.
// Every entry must resolve through the remap — a list the remap does
// not know indicates a dictionary/run mismatch, reported as corruption
// — and no two entries may land on one key: the merge takes one list
// per key from each input, so the second would be lost without a word.
//
// A build's run is one key-ordered region per indexer and a remapped
// segment is ordered by collection only (union slots follow term
// order, segment-local slots first appearance), so neither table is
// ascending as a whole; the table indexes are ordered by merging the
// stretches.
func newMergeCursor(rf *RunFile, remap func(coll, slot uint32) (uint32, bool)) (*mergeCursor, error) {
	keys := make([]uint64, len(rf.entries))
	ascending := true
	for i, e := range rf.entries {
		slot := e.Slot
		if remap != nil {
			ns, ok := remap(e.Collection, e.Slot)
			if !ok {
				return nil, fmt.Errorf("store: %s: list (%d,%d) missing from slot remap: %w",
					rf.name, e.Collection, e.Slot, ErrCorruptIndex)
			}
			slot = ns
		}
		keys[i] = uint64(e.Collection)<<32 | uint64(slot)
		if i > 0 && keys[i] <= keys[i-1] {
			ascending = false
		}
	}
	if ascending {
		return &mergeCursor{rf: rf, keys: keys}, nil
	}
	order := make([]uint32, len(keys))
	for i := range order {
		order[i] = uint32(i)
	}
	order = mergeStretches(order, func(i uint32) uint64 { return keys[i] })
	sorted := make([]uint64, len(keys))
	for i, idx := range order {
		sorted[i] = keys[idx]
		if i > 0 && sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("store: %s: two lists share merge key (%d,%d): %w",
				rf.name, uint32(sorted[i]>>32), uint32(sorted[i]), ErrCorruptIndex)
		}
	}
	return &mergeCursor{rf: rf, keys: sorted, order: order}, nil
}

// mergeStretches sorts s, a concatenation of ascending stretches, by
// merging neighbouring stretches pairwise until one is left: one pass
// over s per halving of the stretch count. What a merge orders comes
// sorted in pieces — a build's table in four, the cursors' key streams
// in one piece per run — and costs two to four passes here where a
// comparison sort pays log2(len(s)) whatever the input; a shuffled
// table is stretches of one and two, and this is then a plain merge
// sort. Stable. The result is s or a new slice of the same length.
func mergeStretches[T any](s []T, key func(T) uint64) []T {
	bounds := []int{0}
	for i := 1; i < len(s); i++ {
		if key(s[i]) < key(s[i-1]) {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, len(s))
	src, dst := s, []T(nil)
	for len(bounds) > 2 {
		if dst == nil {
			dst = make([]T, len(s))
		}
		// merged overwrites bounds from the front, always behind the
		// pair being read.
		merged := bounds[:1]
		for i := 0; i+1 < len(bounds); i += 2 {
			lo, mid, hi := bounds[i], bounds[i+1], bounds[min(i+2, len(bounds)-1)]
			a, b, out := src[lo:mid], src[mid:hi], dst[lo:lo]
			for len(a) > 0 && len(b) > 0 {
				if key(b[0]) < key(a[0]) {
					out = append(out, b[0])
					b = b[1:]
				} else {
					out = append(out, a[0])
					a = a[1:]
				}
			}
			out = append(out, a...)
			out = append(out, b...)
			merged = append(merged, hi)
		}
		bounds = merged
		src, dst = dst, src
	}
	return src
}

// extentGap is how many unreferenced bytes one read may span to join
// two of a shard's lists into one extent: about the bytes a positioned
// read moves in the time a second call would cost. Lists a writer laid
// down back to back join with no gap at all; the tolerance is for the
// lists of a remapped collection cut by a shard boundary.
const extentGap = 4 << 10

// shardInput is one run's share of one shard: the cursor positions
// [lo, lo+len(keys)) whose keys fall in the shard's range, and their
// compressed bytes as the extents they were read in; next is the first
// position the merge has not consumed.
type shardInput struct {
	lo   int
	keys []uint64
	exts []extent
	next int
}

// extent is one positioned read: the blob bytes from off on.
type extent struct {
	off uint64
	buf []byte
}

// bytes returns the entry's compressed bytes out of the extent that
// holds them: the last one starting at or before the entry.
func (in *shardInput) bytes(e RunEntry) []byte {
	if e.Length == 0 {
		return nil
	}
	i, found := slices.BinarySearchFunc(in.exts, e.Offset, func(x extent, off uint64) int { return cmp.Compare(x.off, off) })
	if !found {
		i--
	}
	x := in.exts[i]
	return x.buf[e.Offset-x.off:][:e.Length]
}

// span is one list's place in the blob.
type span struct{ off, end uint64 }

// extentReader fetches shard inputs and counts what it read; its
// scratch is reused from one run to the next within a shard.
type extentReader struct {
	spans []span
	calls int64
	bytes int64
}

// load reads the lists of c's entries [lo, hi) in as few positioned
// reads as the run's layout allows: the lists are ordered by blob
// offset, neighbours closer than extentGap coalesce into one extent,
// and each extent is one readAt into its share of a buffer sized by the
// extents alone. The read count therefore follows the number of
// regions the writer laid the shard's lists down in — four for a
// build's run, one for a key-ordered file — and never the number of
// lists, whatever order the run was written in.
func (r *extentReader) load(c *mergeCursor, lo, hi int) (shardInput, error) {
	in := shardInput{lo: lo, keys: c.keys[lo:hi]}
	if cap(r.spans) < hi-lo {
		r.spans = make([]span, 0, hi-lo)
	}
	r.spans = r.spans[:0]
	for i := lo; i < hi; i++ {
		if e := c.entry(i); e.Length > 0 {
			r.spans = append(r.spans, span{e.Offset, e.Offset + uint64(e.Length)})
		}
	}
	// Coalesce in place: extents overwrite the spans they came from.
	ordered := mergeStretches(r.spans, func(s span) uint64 { return s.off })
	n, size := 0, uint64(0)
	for _, s := range ordered {
		if n > 0 && s.off <= ordered[n-1].end+extentGap {
			if x := &ordered[n-1]; s.end > x.end {
				size += s.end - x.end
				x.end = s.end
			}
			continue
		}
		ordered[n] = s
		size += s.end - s.off
		n++
	}
	buf := make([]byte, size)
	in.exts = make([]extent, n)
	for i, s := range ordered[:n] {
		in.exts[i] = extent{off: s.off, buf: buf[: s.end-s.off : s.end-s.off]}
		buf = buf[s.end-s.off:]
		if err := c.rf.readAt(s.off, in.exts[i].buf); err != nil {
			return in, err
		}
		r.calls++
		r.bytes += int64(s.end - s.off)
	}
	return in, nil
}

// shardResult is one shard's merged output: the encoded blob for the
// shard's contiguous key range, table entries with offsets relative to
// the shard blob (the writer rebases them), the shard's doc range, and
// the positioned reads it took.
type shardResult struct {
	entries   []RunEntry
	blob      []byte
	first     uint32
	last      uint32
	hasDocs   bool
	readCalls int64
	readBytes int64
	err       error
}

// mergeShard performs the k-way merge for one contiguous slice of the
// global key list: it fetches each run's share of the key range
// (positioned reads are concurrency-safe), then for each key
// concatenates the partial lists of every run holding it, drops
// tombstoned documents, re-encodes and appends to the shard blob. keys
// must be non-empty.
func (m *merger) mergeShard(keys []uint64) shardResult {
	res := shardResult{first: ^uint32(0), entries: make([]RunEntry, 0, len(keys))}
	cursors := m.cursors
	inputs := make([]shardInput, len(cursors))
	var reader extentReader
	for ci, c := range cursors {
		lo, _ := slices.BinarySearch(c.keys, keys[0])
		hi, found := slices.BinarySearch(c.keys, keys[len(keys)-1])
		if found {
			hi++
		}
		var err error
		if inputs[ci], err = reader.load(c, lo, hi); err != nil {
			res.err = err
			return res
		}
	}
	res.readCalls, res.readBytes = reader.calls, reader.bytes
	var acc postings.List
	for _, key := range keys {
		coll, slot := uint32(key>>32), uint32(key)
		// Reuse docID/tf capacity across keys; Positions stays nil so
		// the plain-vs-positional bookkeeping in Concat is untouched.
		acc = postings.List{DocIDs: acc.DocIDs[:0], TFs: acc.TFs[:0]}
		for ci, c := range cursors {
			in := &inputs[ci]
			if in.next >= len(in.keys) || in.keys[in.next] != key {
				continue
			}
			e := c.entry(in.lo + in.next)
			in.next++
			part, err := decodeEntry(in.bytes(e), e)
			if err != nil {
				res.err = fmt.Errorf("store: %s: %w", c.rf.name, err)
				return res
			}
			if err := postings.Concat(&acc, part, m.drop); err != nil {
				res.err = fmt.Errorf("store: merge (%d,%d): %w", coll, slot, err)
				return res
			}
		}
		if acc.Len() == 0 {
			continue
		}
		// Encode straight into the shard blob: the list's start offset
		// is the blob length before the append, so no per-list scratch
		// copy is needed. Long non-positional lists get the blocked
		// layout — same codec, split into skip-indexed blocks so the
		// ranked path can prune — whatever the codec.
		start := len(res.blob)
		blob, flags, err := appendList(res.blob, m.sel, true, acc.DocIDs, acc.TFs, acc.Positions)
		if err != nil {
			res.err = fmt.Errorf("store: merge (%d,%d): %w", coll, slot, err)
			return res
		}
		res.blob = blob
		res.entries = append(res.entries, RunEntry{
			Collection: coll,
			Slot:       slot,
			Offset:     uint64(start),
			Length:     uint32(len(res.blob) - start),
			Count:      uint32(acc.Len()),
			Flags:      flags,
		})
		res.hasDocs = true
		if acc.DocIDs[0] < res.first {
			res.first = acc.DocIDs[0]
		}
		if acc.DocIDs[acc.Len()-1] > res.last {
			res.last = acc.DocIDs[acc.Len()-1]
		}
	}
	return res
}

// writeMergedFile runs the sharded merge over m's cursors and writes a
// complete run-format file at path, atomically (temp + fsync +
// rename). ctx cancels in-flight shards; a cancelled merge removes the
// temp file and leaves path untouched. Returns the stats and the file
// CRC (table + blob) for sidecar use.
func (m *merger) writeMergedFile(ctx context.Context, path string, workers int) (*MergeStats, uint32, error) {
	// Distinct merged keys, known before any blob is read: the table
	// region can be sized and reserved up front. Every cursor's keys are
	// one ascending stretch, so their union is a merge, not a sort.
	nLists := 0
	for _, c := range m.cursors {
		nLists += len(c.keys)
	}
	keys := make([]uint64, 0, nLists)
	for _, c := range m.cursors {
		keys = append(keys, c.keys...)
	}
	keys = slices.Compact(mergeStretches(keys, func(k uint64) uint64 { return k }))

	tmpPath := path + ".tmp"
	f, err := os.Create(tmpPath)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		if f != nil {
			f.Close()
			os.Remove(tmpPath)
		}
	}()

	// Reserve header + table, stream the blob behind them, then patch
	// the table and CRC once every offset is known.
	tableSize := len(keys) * entrySize
	if _, err := f.Write(make([]byte, runHdrSize+tableSize)); err != nil {
		return nil, 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)

	var (
		entries = make([]RunEntry, 0, len(keys))
		blobOff uint64
		first   = ^uint32(0)
		last    uint32
		// blobCRC accumulates while the blob streams out; combined with
		// the table CRC below, it avoids a second full read of the
		// output just to checksum it.
		blobCRC   = crc32.NewIEEE()
		readCalls int64
		readBytes int64
	)
	if len(keys) > 0 {
		workers = mergeWorkerCount(workers)
		if workers > len(keys) {
			workers = len(keys)
		}
		// A few shards per worker for load balance; the writer drains
		// them strictly in key order so the file bytes never depend on
		// scheduling.
		nShards := workers * 4
		if nShards > len(keys) {
			nShards = len(keys)
		}
		resCh := make([]chan shardResult, nShards)
		for i := range resCh {
			resCh[i] = make(chan shardResult, 1)
		}
		// The semaphore bounds shard blobs in flight to workers+1.
		// Tokens are acquired before a shard index is claimed, so the
		// lowest undrained shard is always either claimed by a
		// token-holding worker or claimable — no deadlock.
		sem := make(chan struct{}, workers+1)
		var nextShard atomic.Int64
		var aborted atomic.Bool
		for w := 0; w < workers; w++ {
			go func() {
				for {
					sem <- struct{}{}
					s := int(nextShard.Add(1)) - 1
					if s >= nShards {
						<-sem
						return
					}
					if aborted.Load() || ctx.Err() != nil {
						resCh[s] <- shardResult{err: ctx.Err()}
						continue
					}
					lo, hi := s*len(keys)/nShards, (s+1)*len(keys)/nShards
					resCh[s] <- m.mergeShard(keys[lo:hi])
				}
			}()
		}
		var workerErr error
		for s := 0; s < nShards; s++ {
			res := <-resCh[s]
			<-sem
			if workerErr != nil {
				continue
			}
			if res.err != nil {
				workerErr = res.err
				aborted.Store(true)
				continue
			}
			if _, err := bw.Write(res.blob); err != nil {
				workerErr = err
				aborted.Store(true)
				continue
			}
			blobCRC.Write(res.blob) //nolint:errcheck // hash writes cannot fail
			for _, e := range res.entries {
				e.Offset += blobOff
				entries = append(entries, e)
			}
			blobOff += uint64(len(res.blob))
			readCalls += res.readCalls
			readBytes += res.readBytes
			if res.hasDocs {
				if res.first < first {
					first = res.first
				}
				if res.last > last {
					last = res.last
				}
			}
		}
		if workerErr != nil {
			return nil, 0, workerErr
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	if first == ^uint32(0) {
		first = 0
	}

	// Tombstone purges can erase every surviving posting of a key, so
	// fewer entries than reserved table rows is a legal outcome (it
	// cannot happen on the Merge path — AddList skips empty lists).
	// Slide the blob left over the unused reservation and truncate.
	if len(entries) != len(keys) {
		oldStart := int64(runHdrSize + tableSize)
		tableSize = len(entries) * entrySize
		newStart := int64(runHdrSize + tableSize)
		if err := slideDown(f, oldStart, newStart, int64(blobOff)); err != nil {
			return nil, 0, err
		}
		if err := f.Truncate(newStart + int64(blobOff)); err != nil {
			return nil, 0, err
		}
	}

	// Codec and layout histogram for the stats and the sidecar.
	codecCounts := make(map[string]int)
	blocked := 0
	for _, e := range entries {
		c, err := encoding.Lookup(e.Codec())
		if err != nil {
			return nil, 0, fmt.Errorf("store: merge: %w", err)
		}
		codecCounts[c.Name()]++
		if e.Flags&FlagBlocks != 0 {
			blocked++
		}
	}
	hdrTable := make([]byte, runHdrSize+tableSize)
	binary.LittleEndian.PutUint32(hdrTable[0:], runMagic)
	binary.LittleEndian.PutUint32(hdrTable[4:], runVersion)
	binary.LittleEndian.PutUint32(hdrTable[8:], uint32(len(entries)))
	binary.LittleEndian.PutUint32(hdrTable[12:], first)
	binary.LittleEndian.PutUint32(hdrTable[16:], last)
	// CRC patched below once the table bytes are final.
	for i, e := range entries {
		off := runHdrSize + i*entrySize
		binary.LittleEndian.PutUint32(hdrTable[off:], e.Collection)
		binary.LittleEndian.PutUint32(hdrTable[off+4:], e.Slot)
		binary.LittleEndian.PutUint64(hdrTable[off+8:], e.Offset)
		binary.LittleEndian.PutUint32(hdrTable[off+16:], e.Length)
		binary.LittleEndian.PutUint32(hdrTable[off+20:], e.Count)
		binary.LittleEndian.PutUint32(hdrTable[off+24:], e.Flags)
	}
	if _, err := f.WriteAt(hdrTable, 0); err != nil {
		return nil, 0, err
	}
	size := int64(len(hdrTable)) + int64(blobOff)
	// The file CRC covers table + blob. The blob half accumulated while
	// streaming; crc32Combine splices the table CRC in front of it
	// without re-reading a byte of the output.
	fileCRC := crc32Combine(crc32.ChecksumIEEE(hdrTable[runHdrSize:]), blobCRC.Sum32(), int64(blobOff))
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], fileCRC)
	if _, err := f.WriteAt(crcBytes[:], 20); err != nil {
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		f = nil
		os.Remove(tmpPath)
		return nil, 0, err
	}
	f = nil // disarm the cleanup defer
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return nil, 0, err
	}
	syncDir(filepath.Dir(path))
	return &MergeStats{
		Lists:     len(entries),
		Blocked:   blocked,
		Bytes:     size,
		FirstDoc:  first,
		LastDoc:   last,
		Runs:      len(m.cursors),
		Codecs:    codecCounts,
		ReadCalls: readCalls,
		ReadBytes: readBytes,
	}, fileCRC, nil
}

// slideDown moves length bytes from offset src to offset dst (dst <
// src) within f, front to back in bounded chunks so the regions may
// overlap.
func slideDown(f *os.File, src, dst, length int64) error {
	if dst >= src {
		return nil
	}
	buf := make([]byte, 1<<20)
	for moved := int64(0); moved < length; {
		n := int64(len(buf))
		if length-moved < n {
			n = length - moved
		}
		if _, err := f.ReadAt(buf[:n], src+moved); err != nil {
			return err
		}
		if _, err := f.WriteAt(buf[:n], dst+moved); err != nil {
			return err
		}
		moved += n
	}
	return nil
}

// mergeWorkerCount resolves a merge's worker bound (0 = GOMAXPROCS).
func mergeWorkerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// openCursors builds a merge's n cursors on up to workers goroutines
// (0 = GOMAXPROCS, as for the shards).
// Opening an input CRC-verifies the whole file and building its cursor
// orders the whole table; the inputs are independent, so this is the
// part of a merge's set-up that scales with cores. Cursors come back in
// input order. On failure the first error in input order is returned
// beside whatever did open, which the caller still owns.
func openCursors(n, workers int, open func(i int) (*mergeCursor, error)) ([]*mergeCursor, error) {
	cursors := make([]*mergeCursor, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(mergeWorkerCount(workers), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				cursors[i], errs[i] = open(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return cursors, err
		}
	}
	return cursors, nil
}

// CompactSource is one input file for CompactRuns: a run-format file
// plus the remap translating its segment-local dictionary slots into
// the output (union) slot space. A nil Remap is the identity, for
// inputs already in the output slot space. The remaps of different
// sources may be called at the same time.
type CompactSource struct {
	Path  string
	Remap func(coll, slot uint32) (newSlot uint32, ok bool)
}

// CompactOptions tunes CompactRuns.
type CompactOptions struct {
	// Codec selects how each output list is encoded: "auto" (default),
	// or a codec name to force one codec for every list.
	Codec string
	// Workers bounds concurrent shard workers (0 = GOMAXPROCS).
	Workers int
	// Drop reports documents to purge (tombstones). Postings of dropped
	// documents are filtered out; terms left with no postings are
	// omitted from the output table entirely. nil keeps everything.
	Drop func(doc uint32) bool
}

// CompactRuns merges several run-format files into one, remapping
// slots, purging dropped documents and re-encoding every surviving
// list — the LSM compaction primitive, built on the same sharded
// parallel core as IndexReader.Merge. Inputs may arrive in any order;
// they are merged in ascending first-doc order and must cover disjoint
// document ranges per term (segment seals guarantee this). The output
// is written atomically at outPath.
func CompactRuns(ctx context.Context, sources []CompactSource, outPath string, opts CompactOptions) (*MergeStats, error) {
	codecName := opts.Codec
	if codecName == "" {
		codecName = "auto"
	}
	sel, err := encoding.SelectorFor(codecName)
	if err != nil {
		return nil, fmt.Errorf("store: compact codec: %w", err)
	}
	cursors, err := openCursors(len(sources), opts.Workers, func(i int) (*mergeCursor, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src := sources[i]
		rf, err := OpenRunFile(src.Path, nil)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", filepath.Base(src.Path), err)
		}
		c, err := newMergeCursor(rf, src.Remap)
		if err != nil {
			rf.Close()
			return nil, err
		}
		return c, nil
	})
	defer func() {
		for _, c := range cursors {
			if c != nil {
				c.rf.Close()
			}
		}
	}()
	if err != nil {
		return nil, err
	}
	// Ascending doc order makes same-key partial lists concatenate into
	// globally sorted postings.
	slices.SortStableFunc(cursors, func(a, b *mergeCursor) int { return cmp.Compare(a.rf.firstDoc, b.rf.firstDoc) })
	m := &merger{cursors: cursors, sel: sel, drop: opts.Drop}
	stats, _, err := m.writeMergedFile(ctx, outPath, opts.Workers)
	if err != nil {
		return nil, err
	}
	stats.Runs = len(sources)
	return stats, nil
}
