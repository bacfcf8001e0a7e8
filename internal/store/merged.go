package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Merged-file layout: merged.post reuses the run-file format (header,
// mapping table, blob) with the table sorted by (collection, slot) so
// a term lookup is one binary search, one positioned read and one
// decode. The file is only trusted when the versioned sidecar
// merged.json matches it: the sidecar records the format version, the
// exact byte size and the table+blob CRC, all verified at open. Both
// files are written atomically (temp + fsync + rename), so a crash
// mid-merge leaves the previous index fully intact.
const (
	mergedFileName    = "merged.post"
	mergedSidecarName = "merged.json"
	// mergedSidecarVersion gates trust: a sidecar with a different
	// version is ignored and the reader falls back to per-run assembly.
	mergedSidecarVersion = 1
	// mergedSidecarVersionCodec marks a merged file whose entry table
	// carries per-list codec IDs (run format 4). Written only when at
	// least one list is non-varbyte, so all-varbyte merges keep the v1
	// sidecar and stay readable by pre-codec builds.
	mergedSidecarVersionCodec = 2
	// mergedSidecarVersionBlocks marks a merged file holding blocked
	// lists (run format 5, skip tables with per-block maxTF bounds).
	// Written only when at least one list is blocked, so unblocked
	// merges keep the older sidecar versions.
	mergedSidecarVersionBlocks = 3
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
	// Codecs counts lists per codec name (version >= 2 only).
	Codecs map[string]int `json:"codecs,omitempty"`
	// Blocked counts lists in the blocked layout (version >= 3 only).
	Blocked int `json:"blocked_lists,omitempty"`
}

// mergedGen stamps each loaded merged file so reader-cache keys from a
// superseded merge can never alias a re-merged file's lists.
var mergedGen atomic.Uint64

// mergedState is an open, verified merged file.
type mergedState struct {
	rr  *runReader
	key string // generation-stamped cache-key prefix
}

// loadMerged opens and verifies the merged file of an index directory.
// Returns (nil, nil) when no sidecar exists (the index was never
// merged, or was merged by a pre-sidecar version — either way the
// merged file is not trusted). A sidecar that exists but does not
// match the merged file yields a nil state and an error wrapping
// ErrCorruptIndex: OpenIndex records it and falls back to per-run
// assembly, Verify surfaces it.
func loadMerged(dir string) (*mergedState, error) {
	raw, err := os.ReadFile(filepath.Join(dir, mergedSidecarName))
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
	if sc.Version < mergedSidecarVersion || sc.Version > mergedSidecarVersionBlocks {
		// A future format we do not understand: not corruption, just
		// not trustable. Fall back silently.
		return nil, nil
	}
	if sc.File != mergedFileName {
		return nil, fmt.Errorf("merged sidecar names %q: %w", sc.File, ErrCorruptIndex)
	}
	path := filepath.Join(dir, mergedFileName)
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("merged file missing (%v): %w", err, ErrCorruptIndex)
	}
	if st.Size() != sc.Size {
		return nil, fmt.Errorf("merged file is %d bytes, sidecar says %d: %w",
			st.Size(), sc.Size, ErrCorruptIndex)
	}
	rr, err := openRunReader(path)
	if err != nil {
		return nil, fmt.Errorf("merged: %w", err)
	}
	if rr.crc != sc.CRC32 || len(rr.entries) != sc.Lists {
		rr.close()
		return nil, fmt.Errorf("merged file does not match sidecar: %w", ErrCorruptIndex)
	}
	// The binary-searched lookup requires the table sorted by
	// (collection, slot); the writer guarantees it, a tampered file
	// might not.
	for i := 1; i < len(rr.entries); i++ {
		p, c := rr.entries[i-1], rr.entries[i]
		if c.Collection < p.Collection ||
			(c.Collection == p.Collection && c.Slot <= p.Slot) {
			rr.close()
			return nil, fmt.Errorf("merged table disorder at entry %d: %w", i, ErrCorruptIndex)
		}
	}
	return &mergedState{
		rr:  rr,
		key: fmt.Sprintf("%s#%d", mergedFileName, mergedGen.Add(1)),
	}, nil
}

// find binary-searches the sorted merged table.
func (m *mergedState) find(coll, slot uint32) (RunEntry, bool) {
	es := m.rr.entries
	i := sort.Search(len(es), func(i int) bool {
		if es[i].Collection != coll {
			return es[i].Collection >= coll
		}
		return es[i].Slot >= slot
	})
	if i < len(es) && es[i].Collection == coll && es[i].Slot == slot {
		return es[i], true
	}
	return RunEntry{}, false
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
}

// Merge combines all partial postings lists into the single monolithic
// merged.post file — the paper's optional post-processing step, priced
// at <10% of build time (§III.F). The sorted key space is partitioned
// into contiguous shards and merged by up to GOMAXPROCS workers
// (ReaderOptions.MergeWorkers overrides the bound): each worker runs
// the k-way merge for its shard — one positioned read per run per
// term, concatenate, re-encode — and a single writer drains shards in
// key order, so the output bytes are identical for any worker count.
// A semaphore keeps at most workers+1 shard blobs in memory, so peak
// memory stays O(workers × shard blob) plus the O(terms) tables —
// never the whole index. The file and its versioned sidecar are
// written atomically; on success this reader switches to serving
// lookups from the merged file.
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
	cursors := make([]*mergeCursor, 0, len(metas))
	for _, rm := range metas {
		rr, err := r.runFile(rm)
		if err != nil {
			return nil, err
		}
		c, err := newMergeCursor(rr, nil)
		if err != nil {
			return nil, err
		}
		cursors = append(cursors, c)
	}
	m := &merger{
		cursors: cursors,
		sel:     r.mergeSelect,
		onBytes: func(n uint64) { r.listBytes.Add(n) },
		decode:  r.decodeEntry,
		readErr: r.readErr,
	}
	// A forced-varbyte merge is the legacy-compatible mode; self-tuned
	// merges emit the blocked layout for long lists.
	if r.mergeCodecName != "varbyte" {
		m.blockMin = blockMinPostings
	}
	stats, fileCRC, err := m.writeMergedFile(context.Background(),
		filepath.Join(r.dir, mergedFileName), r.mergeWorkers)
	if err != nil {
		return nil, err
	}
	// Any non-varbyte list forces sidecar version 2, any blocked list
	// version 3; an all-varbyte unblocked merge stays byte-compatible
	// with pre-codec readers.
	scVer := mergedSidecarVersion
	var scCodecs map[string]int
	for name, cnt := range stats.Codecs {
		if name != "varbyte" && cnt > 0 {
			scVer = mergedSidecarVersionCodec
			scCodecs = stats.Codecs
			break
		}
	}
	if stats.Blocked > 0 {
		scVer = mergedSidecarVersionBlocks
		scCodecs = stats.Codecs
	}
	sc := mergedSidecar{
		Version:  scVer,
		File:     mergedFileName,
		Size:     stats.Bytes,
		CRC32:    fileCRC,
		Lists:    stats.Lists,
		FirstDoc: stats.FirstDoc,
		LastDoc:  stats.LastDoc,
		Runs:     len(metas),
		Codecs:   scCodecs,
		Blocked:  stats.Blocked,
	}
	if err := writeSidecar(r.dir, sc); err != nil {
		return nil, err
	}
	syncDir(r.dir)

	// Switch this reader onto the merged path so subsequent lookups go
	// through it; a fresh OpenIndex picks it up via the sidecar.
	mState, err := loadMerged(r.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reloading merged file: %w", err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if mState != nil {
			mState.rr.close()
		}
		return nil, ErrClosed
	}
	old := r.merged
	r.merged, r.mergedErr = mState, nil
	r.mu.Unlock()
	if old != nil {
		old.rr.close()
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
