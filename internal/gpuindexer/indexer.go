// Package gpuindexer implements the paper's GPU indexer (§III.D.2) on
// the gpu simulation substrate: one 32-thread block builds the B-tree
// and postings of one trie collection, with 512-byte coalesced loads
// of nodes and input string chunks into shared memory, warp-parallel
// key comparison with a parallel-reduction position search (Fig. 7),
// parallel shifts and splits. Each run launches one thread block per
// trie collection, and the device schedules the blocks onto its SMs.
//
// The device-resident dictionary uses exactly the btree package's
// 512-byte node layout (Table II), and the kernel replicates the CPU
// indexer's preemptive-split insertion, so the two produce bitwise-
// identical dictionaries and postings for the same parsed stream —
// a property the equivalence tests pin down.
package gpuindexer

import (
	"fmt"
	"sort"

	"fastinvert/internal/btree"
	"fastinvert/internal/gpu"
	"fastinvert/internal/parser"
	"fastinvert/internal/postings"
)

// Config tunes the indexer.
type Config struct {
	// NoStringCache is a cost-model ablation of the node string
	// caches (§III.B.2): execution is unchanged, but every key
	// comparison is charged the scattered arena read the cache would
	// have avoided.
	NoStringCache bool
}

const (
	// nodeExtentNodes is the number of 512 B nodes per device node
	// extent (extents are allocated on demand, device-side).
	nodeExtentNodes = 1024

	// arenaExtentSize fixes the arena extent so string pointers pack
	// extent index and offset into an int32: off < 2^17, ext < 2^14.
	arenaExtentSize = 128 << 10
	arenaOffBits    = 17
	arenaOffMask    = 1<<arenaOffBits - 1
)

// RunStats reports one IndexRun's simulated and accounting results.
type RunStats struct {
	Groups     int
	Tokens     int64
	NewTerms   int64
	Chars      int64
	PreSec     float64 // HtoD transfer (pre-processing share)
	KernelSec  float64 // simulated kernel time
	PostSec    float64 // DtoH transfer (post-processing share)
	Launch     gpu.LaunchStats
	InputBytes int
}

// Stats accumulates over the indexer lifetime (Table V's workload
// split numbers).
type Stats struct {
	Tokens   int64
	NewTerms int64
	Chars    int64
	Runs     int64
	SimSec   float64

	// EncodedLists/EncodedBytes count the device-encoded run output
	// shipped through EncodeRun.
	EncodedLists int64
	EncodedBytes int64
}

type collection struct {
	root  int32 // node index, -1 before first insert
	terms int32 // slots assigned so far (dense, per collection)
}

// Indexer is one GPU indexer instance (one device).
type Indexer struct {
	dev *gpu.Device
	cfg Config

	// Device-side allocation state. A launch runs its blocks one after
	// another, and the engine drives each indexer from one goroutine,
	// so nothing here needs a lock.
	nodeExtents  []gpu.Ptr
	nodeNext     int32 // next free node index
	arenaExtents []gpu.Ptr
	arenaOff     int // offset within the last arena extent

	collections map[int]*collection
	stores      map[int]*postings.Store

	// kctx is the kernel context, re-armed for every thread block so
	// that steady-state launches allocate nothing per block.
	kctx *kernelCtx

	// Per-run scratch reused across IndexRun calls.
	work   []groupWork
	packed []byte
	recs   []byte
	seen   map[int]bool
	encBuf []byte // EncodeRun's reused codec output buffer

	stats Stats
}

// New creates an indexer on dev.
func New(dev *gpu.Device, cfg Config) *Indexer {
	return &Indexer{
		dev:         dev,
		cfg:         cfg,
		collections: make(map[int]*collection),
		stores:      make(map[int]*postings.Store),
	}
}

// Device returns the underlying simulated device.
func (ix *Indexer) Device() *gpu.Device { return ix.dev }

// Stats returns lifetime statistics.
func (ix *Indexer) Stats() Stats { return ix.stats }

// Collections returns the sorted trie indices this indexer has seen.
func (ix *Indexer) Collections() []int {
	out := make([]int, 0, len(ix.collections))
	for idx := range ix.collections {
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// Store returns the postings store of a collection (nil if unseen).
func (ix *Indexer) Store(coll int) *postings.Store { return ix.stores[coll] }

// TermCount reports the number of distinct terms in a collection's
// device dictionary.
func (ix *Indexer) TermCount(coll int) int {
	c := ix.collections[coll]
	if c == nil {
		return 0
	}
	return int(c.terms)
}

// allocNode reserves one node index, growing the extent list on demand
// (device-side allocation: safe mid-kernel because device memory never
// moves).
func (ix *Indexer) allocNode() int32 {
	idx := ix.nodeNext
	ix.nodeNext++
	if int(idx)/nodeExtentNodes >= len(ix.nodeExtents) {
		ix.nodeExtents = append(ix.nodeExtents, ix.dev.Malloc(nodeExtentNodes*btree.NodeSize))
	}
	return idx
}

// nodePtr converts a node index to its device address.
func (ix *Indexer) nodePtr(idx int32) gpu.Ptr {
	base := ix.nodeExtents[int(idx)/nodeExtentNodes]
	return base + gpu.Ptr((int(idx)%nodeExtentNodes)*btree.NodeSize)
}

// allocArena reserves n contiguous arena bytes (a record never
// straddles extents) and returns the packed string pointer.
func (ix *Indexer) allocArena(n int) int32 {
	if n > arenaExtentSize {
		panic("gpuindexer: arena record too large")
	}
	if len(ix.arenaExtents) == 0 || ix.arenaOff+n > arenaExtentSize {
		ix.arenaExtents = append(ix.arenaExtents, ix.dev.Malloc(arenaExtentSize))
		ix.arenaOff = 0
	}
	off := ix.arenaOff
	ix.arenaOff += n
	return int32(len(ix.arenaExtents)-1)<<arenaOffBits | int32(off)
}

// arenaPtr converts a packed string pointer to its device address.
func (ix *Indexer) arenaPtr(sptr int32) gpu.Ptr {
	ext := int(sptr >> arenaOffBits)
	off := int(sptr & arenaOffMask)
	return ix.arenaExtents[ext] + gpu.Ptr(off)
}

// groupWork is one scheduled collection within a run.
type groupWork struct {
	coll       int
	streamPtr  gpu.Ptr // device address of the group stream
	streamLen  int
	outPtr     gpu.Ptr // device address of the postings record region
	records    int     // exactly group.Tokens records
	positional bool    // 12-byte (slot,doc,pos) records instead of 8-byte
}

func (w *groupWork) recSize() int {
	if w.positional {
		return 12
	}
	return 8
}

// IndexRun processes one run's parsed groups (§III.E, Fig. 8):
// pre-processing copies the streams to device memory, the kernel
// builds B-trees and emits postings records, post-processing copies
// the records back and aggregates them into per-collection postings.
// Local document IDs are rebased by docBase.
func (ix *Indexer) IndexRun(groups []*parser.Group, docBase uint32) (RunStats, error) {
	var rs RunStats
	if len(groups) == 0 {
		return rs, nil
	}

	// Pre-processing: pack streams, allocate transient IO regions.
	totalIn := 0
	totalRecBytes := 0
	for _, g := range groups {
		totalIn += len(g.Stream)
		rs := 8
		if g.Positional {
			rs = 12
		}
		totalRecBytes += g.Tokens * rs
	}
	inPtr := ix.dev.MallocTransient(totalIn)
	outPtr := ix.dev.MallocTransient(totalRecBytes)
	if ix.seen == nil {
		ix.seen = make(map[int]bool, len(groups))
	} else {
		clear(ix.seen)
	}
	ix.work = ix.work[:0]
	ix.packed = ix.packed[:0]
	inOff, recOff := 0, 0
	for _, g := range groups {
		if ix.seen[g.Index] {
			return rs, fmt.Errorf("gpuindexer: duplicate collection %d in run", g.Index)
		}
		ix.seen[g.Index] = true
		if ix.collections[g.Index] == nil {
			ix.collections[g.Index] = &collection{root: -1}
			ix.stores[g.Index] = postings.NewStore()
		}
		w := groupWork{
			coll:       g.Index,
			streamPtr:  inPtr + gpu.Ptr(inOff),
			streamLen:  len(g.Stream),
			outPtr:     outPtr + gpu.Ptr(recOff),
			records:    g.Tokens,
			positional: g.Positional,
		}
		ix.work = append(ix.work, w)
		ix.packed = append(ix.packed, g.Stream...)
		inOff += len(g.Stream)
		recOff += g.Tokens * w.recSize()
		rs.Tokens += int64(g.Tokens)
		rs.Chars += int64(g.Chars)
	}
	work, packed := ix.work, ix.packed
	rs.Groups = len(groups)
	rs.InputBytes = totalIn
	rs.PreSec = ix.dev.CopyHtoD(inPtr, packed)

	// Kernel: one thread block per collection.
	rs.Launch = ix.dev.Launch(len(work), func(b *gpu.Block) {
		rs.NewTerms += ix.kernelCtx(b, docBase).processGroup(&work[b.BlockIdx])
	})
	rs.KernelSec = rs.Launch.SimSeconds

	// Post-processing: copy records back, aggregate into postings.
	if cap(ix.recs) < totalRecBytes {
		ix.recs = make([]byte, totalRecBytes)
	}
	recs := ix.recs[:totalRecBytes]
	rs.PostSec = ix.dev.CopyDtoH(recs, outPtr)
	for i := range work {
		w := &work[i]
		base := int(w.outPtr - outPtr)
		store := ix.stores[w.coll]
		sz := w.recSize()
		for r := 0; r < w.records; r++ {
			o := base + r*sz
			slot := int32(recs[o]) | int32(recs[o+1])<<8 | int32(recs[o+2])<<16 | int32(recs[o+3])<<24
			doc := uint32(recs[o+4]) | uint32(recs[o+5])<<8 | uint32(recs[o+6])<<16 | uint32(recs[o+7])<<24
			var err error
			if w.positional {
				pos := uint32(recs[o+8]) | uint32(recs[o+9])<<8 | uint32(recs[o+10])<<16 | uint32(recs[o+11])<<24
				err = store.AddPos(slot, doc, pos)
			} else {
				err = store.Add(slot, doc)
			}
			if err != nil {
				return rs, fmt.Errorf("gpuindexer: collection %d: %w", w.coll, err)
			}
		}
	}
	ix.dev.FreeTransients()

	ix.stats.Tokens += rs.Tokens
	ix.stats.NewTerms += rs.NewTerms
	ix.stats.Chars += rs.Chars
	ix.stats.Runs++
	ix.stats.SimSec += rs.PreSec + rs.KernelSec + rs.PostSec
	return rs, nil
}

// ResetRunPostings clears per-run postings (after the engine flushes
// them to a run file) while the device dictionary persists.
func (ix *Indexer) ResetRunPostings() {
	for _, s := range ix.stores {
		s.ResetRun()
	}
}

// snapshotArena copies every arena extent to the host once — the
// dictionary's string storage moving to main memory at the end of the
// program (§III.F: "the dictionary is kept in main memory until the
// last batch of documents is processed, after which it is moved").
func (ix *Indexer) snapshotArena() func(sptr int32) []byte {
	arenaBytes := make([][]byte, len(ix.arenaExtents))
	for i, p := range ix.arenaExtents {
		buf := make([]byte, arenaExtentSize)
		ix.dev.CopyDtoH(buf, p)
		arenaBytes[i] = buf
	}
	return func(sptr int32) []byte {
		ext := int(sptr >> arenaOffBits)
		off := int(sptr & arenaOffMask)
		b := arenaBytes[ext]
		n := int(b[off])
		return b[off+1 : off+1+n]
	}
}

// ExportDictionary walks every collection's device-resident B-tree in
// (collection, key) order with a single arena snapshot, for the final
// dictionary-combine step.
func (ix *Indexer) ExportDictionary(fn func(coll int, stripped []byte, slot int32) bool) {
	readRest := ix.snapshotArena()
	for _, coll := range ix.Collections() {
		c := ix.collections[coll]
		if c == nil || c.root < 0 {
			continue
		}
		if !ix.walkTree(c.root, readRest, func(key []byte, slot int32) bool {
			return fn(coll, key, slot)
		}) {
			return
		}
	}
}

// WalkDictionary walks one collection's device-resident B-tree in key
// order, invoking fn with each stripped key and postings slot.
func (ix *Indexer) WalkDictionary(coll int, fn func(stripped []byte, slot int32) bool) {
	c := ix.collections[coll]
	if c == nil || c.root < 0 {
		return
	}
	readRest := ix.snapshotArena()
	ix.walkTree(c.root, readRest, fn)
}

// walkTree walks one device tree in key order. The key slice passed to
// fn is a shared scratch buffer, valid only for the duration of the
// call.
func (ix *Indexer) walkTree(root int32, readRest func(int32) []byte, fn func(key []byte, slot int32) bool) bool {
	nodeBuf := make([]byte, btree.NodeSize)
	key := make([]byte, 0, btree.MaxKeyLen)
	var walk func(idx int32) bool
	walk = func(idx int32) bool {
		var n btree.Node
		ix.dev.CopyDtoH(nodeBuf, ix.nodePtr(idx))
		n.Unmarshal(nodeBuf)
		for i := 0; i < int(n.ValidCount); i++ {
			if n.Leaf == 0 {
				if !walk(n.Children[i]) {
					return false
				}
			}
			key = key[:0]
			for _, ch := range n.Cache[i] {
				if ch == 0 {
					break
				}
				key = append(key, ch)
			}
			if n.StringPtr[i] != btree.NilPtr {
				key = append(key, readRest(n.StringPtr[i])...)
			}
			if !fn(key, n.PostingsPtr[i]) {
				return false
			}
		}
		if n.Leaf == 0 && n.ValidCount > 0 {
			return walk(n.Children[n.ValidCount])
		}
		return true
	}
	return walk(root)
}
