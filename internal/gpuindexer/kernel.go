package gpuindexer

import (
	"bytes"
	"encoding/binary"

	"fastinvert/internal/btree"
	"fastinvert/internal/gpu"
	"fastinvert/internal/parser"
)

// Shared-memory layout for one thread block (16 KB available; the
// kernel uses just over 2.5 KB, so several blocks fit on an SM at once:
// the latency hiding gpu.Config.ResidentBlocksPerSM charges for).
const (
	shRoot    = 0                  // write-back cache of the collection's root
	shNodeA   = btree.NodeSize     // node image (descent buffer A)
	shNodeB   = 2 * btree.NodeSize // node image (descent buffer B)
	shNodeC   = 3 * btree.NodeSize // split-right construction buffer
	shInput   = 4 * btree.NodeSize // 512 B input string chunk (Fig. 6)
	shStage   = 5 * btree.NodeSize // postings record staging (64 x 8 B)
	shScratch = 6 * btree.NodeSize // string-arena write staging (256 B)

	inputChunk = 512
	stageBytes = 512
)

// kernelCtx is the per-block state of the indexing kernel. The scratch
// slices model lane registers; all device traffic flows through the
// charged gpu.Block primitives.
type kernelCtx struct {
	ix      *Indexer
	b       *gpu.Block
	docBase uint32

	term []byte // current term (assembled from the input chunk)
	rest []byte // arena read scratch

	// laneCost[n] is the shared-access charge of the first n lanes each
	// touching its key's cache word: a constant of the node layout and
	// the device's bank model, measured once per context.
	laneCost [btree.MaxKeys + 1]gpu.SharedCharge

	stageN    int
	recSize   int // 8, or 12 when the current group is positional
	outCursor gpu.Ptr

	// Root write-back cache: every insert starts at the collection's
	// root, so the kernel keeps it resident in shared memory across a
	// group and stores it back once (or when evicted). cachedRoot is
	// the node index in shRoot, -1 when empty.
	cachedRoot int32
	rootDirty  bool
}

func newKernelCtx(ix *Indexer, b *gpu.Block, docBase uint32) *kernelCtx {
	k := &kernelCtx{
		ix:         ix,
		b:          b,
		docBase:    docBase,
		term:       make([]byte, 0, 256),
		rest:       make([]byte, 256),
		cachedRoot: -1,
	}
	var laneWords [btree.MaxKeys]int
	for i := range laneWords {
		laneWords[i] = (btree.OffCache + 4*i) / 4
	}
	for n := 1; n <= btree.MaxKeys; n++ {
		k.laneCost[n] = b.MeasureSharedAccess(laneWords[:n])
	}
	return k
}

// kernelCtx returns the indexer's kernel context re-armed for block b,
// creating it on first use.
func (ix *Indexer) kernelCtx(b *gpu.Block, docBase uint32) *kernelCtx {
	if ix.kctx == nil {
		ix.kctx = newKernelCtx(ix, b, docBase)
		return ix.kctx
	}
	k := ix.kctx
	k.b = b
	k.docBase = docBase
	k.term = k.term[:0]
	k.stageN = 0
	k.recSize = 0
	k.outCursor = 0
	k.cachedRoot = -1
	k.rootDirty = false
	return k
}

// --- node image accessors over shared memory -------------------------

func (k *kernelCtx) valid(base int) int32 { return k.b.SharedI32(base + btree.OffValidCount) }
func (k *kernelCtx) setValid(base int, v int32) {
	k.b.PutSharedI32(base+btree.OffValidCount, v)
}
func (k *kernelCtx) leaf(base int) int32       { return k.b.SharedI32(base + btree.OffLeaf) }
func (k *kernelCtx) setLeaf(base int, v int32) { k.b.PutSharedI32(base+btree.OffLeaf, v) }

func (k *kernelCtx) sptr(base, i int) int32 { return k.b.SharedI32(base + btree.OffStringPtr + 4*i) }
func (k *kernelCtx) setSptr(base, i int, v int32) {
	k.b.PutSharedI32(base+btree.OffStringPtr+4*i, v)
}
func (k *kernelCtx) pptr(base, i int) int32 { return k.b.SharedI32(base + btree.OffPostingsPtr + 4*i) }
func (k *kernelCtx) setPptr(base, i int, v int32) {
	k.b.PutSharedI32(base+btree.OffPostingsPtr+4*i, v)
}
func (k *kernelCtx) child(base, i int) int32 { return k.b.SharedI32(base + btree.OffChildren + 4*i) }
func (k *kernelCtx) setChild(base, i int, v int32) {
	k.b.PutSharedI32(base+btree.OffChildren+4*i, v)
}
func (k *kernelCtx) cache(base, i int) []byte {
	off := base + btree.OffCache + btree.CacheBytes*i
	return k.b.Shared[off : off+btree.CacheBytes]
}

func (k *kernelCtx) loadNode(base int, idx int32) {
	k.b.LoadShared(base, k.ix.nodePtr(idx), btree.NodeSize)
}

func (k *kernelCtx) storeNode(base int, idx int32) {
	k.b.StoreGlobal(k.ix.nodePtr(idx), base, btree.NodeSize)
}

// buildEmptyNode writes a fresh node image (no keys, all pointers nil)
// into the shared buffer at base.
func (k *kernelCtx) buildEmptyNode(base int, leaf int32) {
	k.setValid(base, 0)
	k.setLeaf(base, leaf)
	for i := 0; i < btree.MaxKeys; i++ {
		k.setSptr(base, i, btree.NilPtr)
		k.setPptr(base, i, btree.NilPtr)
		for c := 0; c < btree.CacheBytes; c++ {
			k.cache(base, i)[c] = 0
		}
	}
	for i := 0; i < btree.MaxChildren; i++ {
		k.setChild(base, i, btree.NilPtr)
	}
	k.b.PutSharedI32(base+btree.OffPadding, 0)
	k.b.ChargeInstr(4) // lane-parallel clear of the 128-word image
}

// readArenaRest fetches a key's arena remainder into the scratch
// buffer: one scattered read for the length byte and record — the
// divergent, expensive path the node caches exist to avoid.
func (k *kernelCtx) readArenaRest(sptr int32) []byte {
	p := k.ix.arenaPtr(sptr)
	k.b.GlobalReadScattered(k.rest[:1], p)
	n := int(k.rest[0])
	if n == 0 {
		return k.rest[:0]
	}
	k.b.GlobalReadScattered(k.rest[:n], p+1)
	return k.rest[:n]
}

// cacheWord reads key i's 4-byte string cache as the integer whose
// order is the byte order of the cache: what a lane compares.
func (k *kernelCtx) cacheWord(base, i int) uint32 {
	return binary.BigEndian.Uint32(k.b.Shared[base+btree.OffCache+btree.CacheBytes*i:])
}

// findInNode is the paper's Fig. 7 warp search: all lanes compare term
// against their key in parallel (one shared access over the cache
// words), then a parallel reduction locates the insert position and
// any exact match. A lane settles its key with one 32-bit compare of
// the cache words, replicating btree.Tree.compareAt; only when they tie
// and a remainder exists does it read the arena.
func (k *kernelCtx) findInNode(base int, term []byte) (pos int, found bool) {
	valid := int(k.valid(base))
	var tc [btree.CacheBytes]byte
	copy(tc[:], term)
	termWord := binary.BigEndian.Uint32(tc[:])
	var termRest []byte
	if len(term) > btree.CacheBytes {
		termRest = term[btree.CacheBytes:]
	}
	noCache := k.ix.cfg.NoStringCache
	live := min(valid, btree.MaxKeys, k.b.Dim)
	match := -1
	divergent := 0
	for lane := 0; lane < live; lane++ {
		if noCache {
			// Without the cache the key's bytes live only in the arena:
			// charge the scattered fetch the cache would have avoided.
			if sp := k.sptr(base, lane); sp != btree.NilPtr {
				k.readArenaRest(sp)
			} else {
				k.b.ChargeScatteredRead(btree.CacheBytes)
			}
		}
		if keyWord := k.cacheWord(base, lane); termWord != keyWord {
			if termWord > keyWord {
				pos++
			}
			continue
		}
		// A cache tie forces this lane onto the slow arena path while
		// the rest of the warp waits — warp divergence.
		sp := k.sptr(base, lane)
		if len(term) > btree.CacheBytes || sp != btree.NilPtr {
			divergent++
		}
		var nodeRest []byte
		if sp != btree.NilPtr {
			nodeRest = k.readArenaRest(sp)
		}
		switch c := bytes.Compare(termRest, nodeRest); {
		case c > 0:
			pos++
		case c == 0 && match < 0:
			match = lane
		}
	}
	k.b.ChargeInstr(1) // the lockstep compare region
	k.b.ChargeDivergentLanes(divergent)
	k.b.ReplaySharedAccess(k.laneCost[max(valid, 1)])
	// Parallel reduction (log2 32 = 5 steps): count keys below term
	// and detect equality.
	k.b.ChargeInstr(5)
	if match >= 0 {
		return match, true
	}
	return pos, false
}

// insertAt performs the paper's "Inserting" step on a leaf image:
// lanes shift the larger keys right in parallel, then the new key's
// cache bytes, arena remainder and postings slot are written.
func (k *kernelCtx) insertAt(base, pos int, term []byte, coll *collection) int32 {
	valid := int(k.valid(base))
	for i := valid; i > pos; i-- {
		copy(k.cache(base, i), k.cache(base, i-1))
		k.setSptr(base, i, k.sptr(base, i-1))
		k.setPptr(base, i, k.pptr(base, i-1))
	}
	// Lane-parallel shift of three arrays plus the cache words.
	k.b.ChargeInstr(3)
	k.b.ReplaySharedAccess(k.laneCost[max(valid-pos, 1)])

	cc := k.cache(base, pos)
	for c := 0; c < btree.CacheBytes; c++ {
		cc[c] = 0
	}
	copy(cc, term)
	if len(term) > btree.CacheBytes {
		rest := term[btree.CacheBytes:]
		sptr := k.ix.allocArena(1 + len(rest))
		k.b.Shared[shScratch] = byte(len(rest))
		copy(k.b.Shared[shScratch+1:shScratch+1+len(rest)], rest)
		k.b.StoreGlobal(k.ix.arenaPtr(sptr), shScratch, 1+len(rest))
		k.setSptr(base, pos, sptr)
	} else {
		k.setSptr(base, pos, btree.NilPtr)
	}
	slot := coll.terms
	coll.terms++
	k.setPptr(base, pos, slot)
	k.setValid(base, int32(valid+1))
	return slot
}

// bindRoot makes the collection's root resident in shRoot, writing
// back any previously cached dirty root.
func (k *kernelCtx) bindRoot(coll *collection) {
	if k.cachedRoot == coll.root {
		return
	}
	k.flushRoot()
	k.loadNode(shRoot, coll.root)
	k.cachedRoot = coll.root
}

// flushRoot writes the cached root back to device memory if dirty and
// empties the cache.
func (k *kernelCtx) flushRoot() {
	if k.cachedRoot >= 0 && k.rootDirty {
		k.storeNode(shRoot, k.cachedRoot)
	}
	k.cachedRoot = -1
	k.rootDirty = false
}

// splitChild is the paper's "Splitting" step: the full child image at
// childBase splits around its median into a new right node built at
// shNodeC; the parent image at parentBase gains the median key. The
// child and right images are stored back with coalesced writes; the
// parent is stored unless it is the cached root (parentIsRoot), which
// is just marked dirty.
func (k *kernelCtx) splitChild(parentBase int, parentIdx int32, parentIsRoot bool, childBase int, childIdx int32, childPos int) {
	rightIdx := k.ix.allocNode()
	k.buildEmptyNode(shNodeC, k.leaf(childBase))
	k.setValid(shNodeC, btree.Degree-1)
	for i := 0; i < btree.Degree-1; i++ {
		copy(k.cache(shNodeC, i), k.cache(childBase, btree.Degree+i))
		k.setSptr(shNodeC, i, k.sptr(childBase, btree.Degree+i))
		k.setPptr(shNodeC, i, k.pptr(childBase, btree.Degree+i))
	}
	if k.leaf(childBase) == 0 {
		for i := 0; i < btree.Degree; i++ {
			k.setChild(shNodeC, i, k.child(childBase, btree.Degree+i))
			k.setChild(childBase, btree.Degree+i, btree.NilPtr)
		}
	}
	k.b.ChargeInstr(4) // lane-parallel move of the upper half

	// Parent: open a slot at childPos for the hoisted median.
	pv := int(k.valid(parentBase))
	for i := pv; i > childPos; i-- {
		copy(k.cache(parentBase, i), k.cache(parentBase, i-1))
		k.setSptr(parentBase, i, k.sptr(parentBase, i-1))
		k.setPptr(parentBase, i, k.pptr(parentBase, i-1))
		k.setChild(parentBase, i+1, k.child(parentBase, i))
	}
	copy(k.cache(parentBase, childPos), k.cache(childBase, btree.Degree-1))
	k.setSptr(parentBase, childPos, k.sptr(childBase, btree.Degree-1))
	k.setPptr(parentBase, childPos, k.pptr(childBase, btree.Degree-1))
	k.setChild(parentBase, childPos+1, rightIdx)
	k.setValid(parentBase, int32(pv+1))
	k.b.ChargeInstr(4)

	// Child keeps the lower half; scrub the moved-out entries.
	k.setValid(childBase, btree.Degree-1)
	for i := btree.Degree - 1; i < btree.MaxKeys; i++ {
		cc := k.cache(childBase, i)
		for c := 0; c < btree.CacheBytes; c++ {
			cc[c] = 0
		}
		k.setSptr(childBase, i, btree.NilPtr)
		k.setPptr(childBase, i, btree.NilPtr)
	}
	k.b.ChargeInstr(2)

	k.storeNode(shNodeC, rightIdx)
	k.storeNode(childBase, childIdx)
	if parentIsRoot {
		k.rootDirty = true
	} else {
		k.storeNode(parentBase, parentIdx)
	}
}

// insert locates or creates term in the collection's device B-tree,
// returning its postings slot, mirroring btree.Tree.Insert node for
// node so CPU and GPU dictionaries match exactly. The root is read
// from (and mutated in) the shared-memory write-back cache.
func (k *kernelCtx) insert(coll *collection, term []byte) (slot int32, created bool) {
	if len(term) > btree.MaxKeyLen {
		term = term[:btree.MaxKeyLen]
	}
	k.bindRoot(coll)
	if k.valid(shRoot) == btree.MaxKeys {
		// Grow upward: the old root leaves the cache (stored back as
		// a regular child) and a fresh internal root replaces it.
		newRoot := k.ix.allocNode()
		oldRoot := k.cachedRoot
		k.storeNode(shRoot, oldRoot)
		k.buildEmptyNode(shRoot, 0)
		k.setChild(shRoot, 0, oldRoot)
		coll.root = newRoot
		k.cachedRoot = newRoot
		k.rootDirty = true
		// The descent below will split the old (full) root.
	}
	curBase := shRoot
	curIdx := coll.root
	isRoot := true
	nextBuf := shNodeA
	for {
		pos, found := k.findInNode(curBase, term)
		if found {
			return k.pptr(curBase, pos), false
		}
		if k.leaf(curBase) == 1 {
			slot = k.insertAt(curBase, pos, term, coll)
			if isRoot {
				k.rootDirty = true
			} else {
				k.storeNode(curBase, curIdx)
			}
			return slot, true
		}
		childIdx := k.child(curBase, pos)
		childBase := nextBuf
		k.loadNode(childBase, childIdx)
		if k.valid(childBase) == btree.MaxKeys {
			k.splitChild(curBase, curIdx, isRoot, childBase, childIdx, pos)
			continue // re-scan the updated parent image
		}
		curBase, curIdx, isRoot = childBase, childIdx, false
		if nextBuf == shNodeA {
			nextBuf = shNodeB
		} else {
			nextBuf = shNodeA
		}
	}
}

// emit stages one postings record (slot, global docID, and the token
// position for positional groups); full stages flush to the group's
// output region with a coalesced store.
func (k *kernelCtx) emit(slot int32, doc, pos uint32) {
	o := shStage + k.stageN*k.recSize
	s := k.b.Shared[o : o+k.recSize]
	s[0], s[1], s[2], s[3] = byte(slot), byte(slot>>8), byte(slot>>16), byte(slot>>24)
	s[4], s[5], s[6], s[7] = byte(doc), byte(doc>>8), byte(doc>>16), byte(doc>>24)
	if k.recSize == 12 {
		s[8], s[9], s[10], s[11] = byte(pos), byte(pos>>8), byte(pos>>16), byte(pos>>24)
	}
	k.stageN++
	if (k.stageN+1)*k.recSize > stageBytes {
		k.flushStage()
	}
}

func (k *kernelCtx) flushStage() {
	if k.stageN == 0 {
		return
	}
	n := k.stageN * k.recSize
	k.b.StoreGlobal(k.outCursor, shStage, n)
	k.outCursor += gpu.Ptr(n)
	k.stageN = 0
}

// streamReader decodes a group's parsed stream from device memory
// through 512 B coalesced chunk loads into shared memory.
type streamReader struct {
	k          *kernelCtx
	base       gpu.Ptr
	n          int
	pos        int
	chunkStart int
	chunkLen   int
}

func (r *streamReader) readByte() (byte, bool) {
	if r.pos >= r.n {
		return 0, false
	}
	if r.chunkLen == 0 || r.pos >= r.chunkStart+r.chunkLen {
		r.chunkStart = r.pos
		r.chunkLen = inputChunk
		if rem := r.n - r.pos; r.chunkLen > rem {
			r.chunkLen = rem
		}
		r.k.b.LoadShared(shInput, r.base+gpu.Ptr(r.pos), r.chunkLen)
	}
	c := r.k.b.Shared[shInput+r.pos-r.chunkStart]
	r.pos++
	return c, true
}

// processGroup runs the full per-collection kernel: decode the parsed
// stream, insert every term, and emit its postings record. It returns
// the number of terms new to the collection's dictionary.
func (k *kernelCtx) processGroup(w *groupWork) (newTerms int64) {
	coll := k.ix.collections[w.coll]
	if coll.root < 0 {
		root := k.ix.allocNode()
		k.flushRoot()
		k.buildEmptyNode(shRoot, 1)
		coll.root = root
		k.cachedRoot = root
		k.rootDirty = true
	}
	k.outCursor = w.outPtr
	k.stageN = 0
	k.recSize = w.recSize()
	sr := streamReader{k: k, base: w.streamPtr, n: w.streamLen}
	var doc uint32
	haveDoc := false
	for {
		c, ok := sr.readByte()
		if !ok {
			break
		}
		if c == parser.DocMarker {
			var id uint32
			for shift := 0; shift < 32; shift += 8 {
				b, ok := sr.readByte()
				if !ok {
					panic("gpuindexer: truncated doc marker")
				}
				id |= uint32(b) << shift
			}
			doc = id + k.docBase
			haveDoc = true
			k.b.ChargeInstr(1)
			continue
		}
		if !haveDoc {
			panic("gpuindexer: term before document marker")
		}
		n := int(c)
		k.term = k.term[:0]
		for i := 0; i < n; i++ {
			b, ok := sr.readByte()
			if !ok {
				panic("gpuindexer: truncated term record")
			}
			k.term = append(k.term, b)
		}
		var pos uint32
		if w.positional {
			var shift uint
			for {
				b, ok := sr.readByte()
				if !ok || shift > 28 {
					panic("gpuindexer: truncated position")
				}
				pos |= uint32(b&0x7f) << shift
				if b < 0x80 {
					break
				}
				shift += 7
			}
		}
		k.b.ChargeInstr(2) // record decode
		slot, created := k.insert(coll, k.term)
		if created {
			newTerms++
		}
		k.emit(slot, doc, pos)
	}
	k.flushStage()
	k.flushRoot()
	return newTerms
}
