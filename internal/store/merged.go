package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Merged-file layout: merged.post reuses the run-file format (header,
// mapping table, blob) with the table sorted by (collection, slot).
// The file is only trusted when the sidecar merged.json matches it:
// the sidecar records the format version, the exact byte size and the
// table+blob CRC, all verified at open. Both files are written
// atomically (temp + fsync + rename), so a crash mid-merge leaves the
// previous index fully intact.
const (
	mergedFileName    = "merged.post"
	mergedSidecarName = "merged.json"
	// mergedSidecarVersion is the one sidecar version written and
	// trusted; a sidecar stamped otherwise is reported through
	// MergedErr like any other mismatch.
	mergedSidecarVersion = 3
)

// mergedSidecar is the on-disk merged.json shape.
type mergedSidecar struct {
	Version  int    `json:"version"`
	File     string `json:"file"`
	Size     int64  `json:"size"`
	CRC32    uint32 `json:"crc32"`
	Lists    int    `json:"lists"`
	FirstDoc uint32 `json:"first_doc"`
	LastDoc  uint32 `json:"last_doc"`
	Runs     int    `json:"runs"`
	// Codecs counts lists per codec name.
	Codecs map[string]int `json:"codecs,omitempty"`
	// Blocked counts lists in the blocked layout.
	Blocked int `json:"blocked_lists,omitempty"`
}

// loadMerged opens and verifies the merged file of an index directory
// for r. Returns (nil, nil) when no sidecar exists (the index was never
// merged). A sidecar that exists but does not match the merged file —
// another version, another size or checksum, a table out of order —
// yields a nil file and an error wrapping ErrCorruptIndex: OpenIndex
// records it and falls back to per-run assembly, Verify surfaces it.
func (r *IndexReader) loadMerged() (*RunFile, error) {
	raw, err := os.ReadFile(filepath.Join(r.dir, mergedSidecarName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var sc mergedSidecar
	if err := json.Unmarshal(raw, &sc); err != nil {
		return nil, fmt.Errorf("merged sidecar (%v): %w", err, ErrCorruptIndex)
	}
	if sc.Version != mergedSidecarVersion {
		return nil, fmt.Errorf("merged sidecar version %d, want %d: %w",
			sc.Version, mergedSidecarVersion, ErrCorruptIndex)
	}
	if sc.File != mergedFileName {
		return nil, fmt.Errorf("merged sidecar names %q: %w", sc.File, ErrCorruptIndex)
	}
	path := filepath.Join(r.dir, mergedFileName)
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("merged file missing (%v): %w", err, ErrCorruptIndex)
	}
	if st.Size() != sc.Size {
		return nil, fmt.Errorf("merged file is %d bytes, sidecar says %d: %w",
			st.Size(), sc.Size, ErrCorruptIndex)
	}
	rf, err := OpenRunFile(path, &r.reads)
	if err != nil {
		return nil, fmt.Errorf("merged: %w", err)
	}
	if rf.crc != sc.CRC32 || len(rf.entries) != sc.Lists {
		rf.Close()
		return nil, fmt.Errorf("merged file does not match sidecar: %w", ErrCorruptIndex)
	}
	// The writer sorts the table by (collection, slot); a file that
	// passes its checksum with the table out of order was not written
	// by Merge.
	for i := 1; i < len(rf.entries); i++ {
		p, c := rf.entries[i-1], rf.entries[i]
		if c.Collection < p.Collection ||
			(c.Collection == p.Collection && c.Slot <= p.Slot) {
			rf.Close()
			return nil, fmt.Errorf("merged table disorder at entry %d: %w", i, ErrCorruptIndex)
		}
	}
	return rf, nil
}

// MergeStats summarizes one post-processing merge.
type MergeStats struct {
	Lists    int    // merged postings lists (distinct terms with postings)
	Blocked  int    // lists written in the blocked skip-table layout
	Bytes    int64  // total merged.post size
	FirstDoc uint32 // global doc range covered
	LastDoc  uint32
	Runs     int            // source run files combined
	Codecs   map[string]int // lists per codec the selector chose
	// ReadCalls and ReadBytes are the positioned reads the merge issued
	// against its inputs' blobs and the bytes they moved (the opening
	// CRC pass is not in them). For one set of inputs they depend only
	// on the worker count, which fixes the shards.
	ReadCalls int64
	ReadBytes int64
}

// Merge combines all partial postings lists into the single monolithic
// merged.post file — the paper's optional post-processing step, priced
// at <10% of build time (§III.F). The sorted key space is partitioned
// into contiguous shards and merged by up to GOMAXPROCS workers
// (ReaderOptions.MergeWorkers overrides the bound): the workers first
// open and checksum the runs, then each runs the k-way merge for its
// shards — one positioned read per region a run laid the shard's lists
// down in, concatenate, re-encode — and a single writer drains shards
// in key order, so the output bytes are identical for any worker
// count. A semaphore keeps at most workers+1 shards in memory, so peak
// memory stays O(workers × shard bytes, input and output) plus the
// O(terms) tables — never the whole index. The file and its versioned
// sidecar are written atomically; on success this reader switches to
// serving lookups from the merged file.
func (r *IndexReader) Merge() (*MergeStats, error) {
	r.mergeMu.Lock()
	defer r.mergeMu.Unlock()
	if err := r.checkClosed(); err != nil {
		return nil, err
	}

	// Source runs in ascending doc order, so same-key partial lists
	// concatenate into globally sorted postings.
	metas := append([]RunMeta(nil), r.runs...)
	sort.SliceStable(metas, func(i, j int) bool { return metas[i].FirstDoc < metas[j].FirstDoc })
	cursors, err := openCursors(len(metas), r.mergeWorkers, func(i int) (*mergeCursor, error) {
		rf, err := r.runFile(metas[i])
		if err != nil {
			return nil, err
		}
		return newMergeCursor(rf, nil)
	})
	if err != nil {
		return nil, err
	}
	m := &merger{cursors: cursors, sel: r.mergeSelect}
	stats, fileCRC, err := m.writeMergedFile(context.Background(),
		filepath.Join(r.dir, mergedFileName), r.mergeWorkers)
	if err != nil {
		return nil, err
	}
	sc := mergedSidecar{
		Version:  mergedSidecarVersion,
		File:     mergedFileName,
		Size:     stats.Bytes,
		CRC32:    fileCRC,
		Lists:    stats.Lists,
		FirstDoc: stats.FirstDoc,
		LastDoc:  stats.LastDoc,
		Runs:     len(metas),
		Codecs:   stats.Codecs,
		Blocked:  stats.Blocked,
	}
	if err := writeSidecar(r.dir, sc); err != nil {
		return nil, err
	}
	syncDir(r.dir)

	// Switch this reader onto the merged path so subsequent lookups go
	// through it; a fresh OpenIndex picks it up via the sidecar.
	merged, err := r.loadMerged()
	if err != nil {
		return nil, fmt.Errorf("store: reloading merged file: %w", err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if merged != nil {
			merged.Close()
		}
		return nil, ErrClosed
	}
	old := r.merged
	r.merged, r.mergedErr = merged, nil
	r.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return stats, nil
}

// writeSidecar atomically persists merged.json.
func writeSidecar(dir string, sc mergedSidecar) error {
	data, err := json.MarshalIndent(sc, "", " ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, mergedSidecarName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, mergedSidecarName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames survive a crash; best-effort
// (some filesystems reject directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() //nolint:errcheck
	d.Close()
}
