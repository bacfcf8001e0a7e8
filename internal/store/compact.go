package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
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
// tombstone filter. Its reads are bulk I/O, not queries, and are not
// counted on the files' ReadCounters.
type merger struct {
	cursors []*mergeCursor
	sel     encoding.Selector
	drop    func(doc uint32) bool // nil keeps every posting
}

// mergeCursor is one run's entries in merge-key order. It is read-only
// during the merge: each shard worker keeps its own position per run,
// so the same cursors serve every shard concurrently. keys carries the
// merge key of every entry — (collection<<32 | slot) after any slot
// remap — and ordered sorts entry indexes by it. Remapped keys need
// their own sort because union slots are assigned in term order while
// segment-local slots follow first-appearance order.
type mergeCursor struct {
	rf      *RunFile
	keys    []uint64
	ordered []int
}

// keyAt returns the merge key of the i-th entry in key order.
func (c *mergeCursor) keyAt(i int) uint64 { return c.keys[c.ordered[i]] }

// newMergeCursor builds a cursor over rf; a nil remap is the identity.
// Every entry must resolve through the remap — a list the remap does
// not know indicates a dictionary/run mismatch, reported as corruption.
func newMergeCursor(rf *RunFile, remap func(coll, slot uint32) (uint32, bool)) (*mergeCursor, error) {
	c := &mergeCursor{
		rf:      rf,
		keys:    make([]uint64, len(rf.entries)),
		ordered: make([]int, len(rf.entries)),
	}
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
		c.keys[i] = uint64(e.Collection)<<32 | uint64(slot)
		c.ordered[i] = i
	}
	sort.Slice(c.ordered, func(a, b int) bool { return c.keys[c.ordered[a]] < c.keys[c.ordered[b]] })
	return c, nil
}

// runSpan is one run's contiguous blob range covering a shard's keys,
// read with a single positioned read. base is the blob offset of
// buf[0]; entries slice into it by (Offset - base).
type runSpan struct {
	buf  []byte
	base uint64
}

// shardResult is one shard's merged output: the encoded blob for the
// shard's contiguous key range, table entries with offsets relative to
// the shard blob (the writer rebases them), and the shard's doc range.
type shardResult struct {
	entries []RunEntry
	blob    []byte
	first   uint32
	last    uint32
	hasDocs bool
	err     error
}

// mergeShard performs the k-way merge for one contiguous slice of the
// global key list: for each key it reads the partial lists from every
// run holding it (positioned reads are concurrency-safe), concatenates,
// drops tombstoned documents, re-encodes and appends to the shard
// blob. keys must be non-empty.
func (m *merger) mergeShard(keys []uint64) shardResult {
	res := shardResult{first: ^uint32(0)}
	cursors := m.cursors
	// Per-run position of the first entry at or past the shard's key
	// range; from there each run is walked sequentially, exactly as the
	// serial merge walked it across the whole key space.
	pos := make([]int, len(cursors))
	end := make([]int, len(cursors))
	spans := make([]runSpan, len(cursors))
	lastKey := keys[len(keys)-1]
	for ci, c := range cursors {
		pos[ci] = sort.Search(len(c.ordered), func(i int) bool {
			return c.keyAt(i) >= keys[0]
		})
		end[ci] = pos[ci] + sort.Search(len(c.ordered)-pos[ci], func(i int) bool {
			return c.keyAt(pos[ci]+i) > lastKey
		})
		// Indexers emit lists in key order, so the shard's entries in
		// this run are (near-)contiguous in the blob: read the whole
		// span with one positioned read instead of one read per list.
		// A sparse span (hand-built or reordered run) falls back to
		// per-list reads rather than dragging in unrelated bytes.
		var minOff, maxEnd, sum uint64
		for _, idx := range c.ordered[pos[ci]:end[ci]] {
			e := c.rf.entries[idx]
			if e.Length == 0 {
				continue
			}
			if sum == 0 || e.Offset < minOff {
				minOff = e.Offset
			}
			if e.Offset+uint64(e.Length) > maxEnd {
				maxEnd = e.Offset + uint64(e.Length)
			}
			sum += uint64(e.Length)
		}
		if sum > 0 && maxEnd-minOff <= sum+sum/2+(64<<10) {
			buf := make([]byte, maxEnd-minOff)
			if err := c.rf.readAt(minOff, buf); err != nil {
				res.err = err
				return res
			}
			spans[ci] = runSpan{buf: buf, base: minOff}
		}
	}
	var (
		acc     postings.List
		partBuf []byte // reused compressed-bytes buffer (decode copies out)
	)
	for _, key := range keys {
		coll, slot := uint32(key>>32), uint32(key)
		// Reuse docID/tf capacity across keys; Positions stays nil so
		// the plain-vs-positional bookkeeping in Concat is untouched.
		acc = postings.List{DocIDs: acc.DocIDs[:0], TFs: acc.TFs[:0]}
		for ci, c := range cursors {
			if pos[ci] >= len(c.ordered) || c.keyAt(pos[ci]) != key {
				continue
			}
			e := c.rf.entries[c.ordered[pos[ci]]]
			pos[ci]++
			var partBlob []byte
			if s := spans[ci]; s.buf != nil && e.Length > 0 {
				partBlob = s.buf[e.Offset-s.base : e.Offset-s.base+uint64(e.Length)]
			} else {
				// Keep the grown buffer for the next read.
				if cap(partBuf) < int(e.Length) {
					partBuf = make([]byte, e.Length)
				}
				partBlob = partBuf[:e.Length]
				if err := c.rf.readAt(e.Offset, partBlob); err != nil {
					res.err = err
					return res
				}
			}
			part, err := decodeEntry(partBlob, e)
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
	// region can be sized and reserved up front.
	nLists := 0
	for _, c := range m.cursors {
		nLists += len(c.rf.entries)
	}
	keys := make([]uint64, 0, nLists)
	for _, c := range m.cursors {
		keys = append(keys, c.keys...)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	keys = dedupeSorted(keys)

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
		blobCRC = crc32.NewIEEE()
	)
	if len(keys) > 0 {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
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
		Lists:    len(entries),
		Blocked:  blocked,
		Bytes:    size,
		FirstDoc: first,
		LastDoc:  last,
		Runs:     len(m.cursors),
		Codecs:   codecCounts,
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

// dedupeSorted removes adjacent duplicates in place.
func dedupeSorted(keys []uint64) []uint64 {
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// CompactSource is one input file for CompactRuns: a run-format file
// plus the remap translating its segment-local dictionary slots into
// the output (union) slot space. A nil Remap is the identity, for
// inputs already in the output slot space.
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
	cursors := make([]*mergeCursor, 0, len(sources))
	defer func() {
		for _, c := range cursors {
			c.rf.Close()
		}
	}()
	for _, src := range sources {
		rf, err := OpenRunFile(src.Path, nil)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", filepath.Base(src.Path), err)
		}
		c, err := newMergeCursor(rf, src.Remap)
		if err != nil {
			rf.Close()
			return nil, err
		}
		cursors = append(cursors, c)
	}
	// Ascending doc order makes same-key partial lists concatenate into
	// globally sorted postings.
	sort.SliceStable(cursors, func(i, j int) bool { return cursors[i].rf.firstDoc < cursors[j].rf.firstDoc })
	m := &merger{cursors: cursors, sel: sel, drop: opts.Drop}
	stats, _, err := m.writeMergedFile(ctx, outPath, opts.Workers)
	if err != nil {
		return nil, err
	}
	stats.Runs = len(sources)
	return stats, nil
}
