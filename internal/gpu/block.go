package gpu

import "fmt"

// Block is the execution context of one thread block (one warp in the
// paper's configuration). Kernels run a warp's lanes as a plain host
// loop, charge each lockstep region with ChargeInstr, and move data
// through the explicit shared/global memory calls; every operation
// charges the block's cycle counter according to the device cost model.
//
// Launch runs a grid's blocks one after another on its caller and
// re-arms one Block for each, so a kernel must not retain its Block
// past its return.
type Block struct {
	dev      *Device
	BlockIdx int
	Dim      int    // lanes per block (warp size)
	Shared   []byte // per-block shared memory, zeroed at block start

	ctr blockCounters

	// Cost-model scratch, reused across charges and blocks: recycling
	// it keeps the simulated-hardware accounting off the allocator's
	// hot path (it runs once per modeled half-warp access).
	bankCounts []int
	minVals    []int32
	minLanes   []int
	minWords   []int
}

// Device returns the owning device (for configuration lookups).
func (b *Block) Device() *Device { return b.dev }

// Cycles reports the cycles charged to this block so far.
func (b *Block) Cycles() int64 { return b.ctr.cycles }

// ChargeInstr charges n warp instructions (arithmetic, compare,
// branch): one per lockstep region of a kernel's lane loop, more where
// a lane body does nontrivial work. Helpers in this package charge
// automatically.
func (b *Block) ChargeInstr(n int64) {
	b.ctr.instructions += n
	b.ctr.cycles += n * b.dev.cfg.InstrCycles
}

// SyncThreads models __syncthreads(); within this sequential-lockstep
// simulation it only charges the barrier instruction.
func (b *Block) SyncThreads() { b.ChargeInstr(1) }

// transactions counts the coalesced segments covering [addr, addr+n).
func (b *Block) transactions(addr Ptr, n int) int64 {
	if n <= 0 {
		return 0
	}
	seg := int64(b.dev.cfg.SegmentBytes)
	first := int64(addr) / seg
	last := (int64(addr) + int64(n) - 1) / seg
	return last - first + 1
}

func (b *Block) chargeGlobal(txns int64, bytes int) {
	b.ctr.globalTxns += txns
	b.ctr.globalBytes += int64(bytes)
	lat := b.dev.cfg.MemLatencyCycles
	if r := b.dev.cfg.ResidentBlocksPerSM; r > 1 {
		lat = (lat + r - 1) / r // hidden behind other resident warps
	}
	b.ctr.cycles += lat + txns*b.dev.cfg.SegmentCycles
}

// LoadShared copies n bytes from device memory at src into shared
// memory at dst, modeling a coalesced cooperative load: the warp's
// lanes stream contiguous segments, so the cost is one latency plus
// one transaction per 64-byte segment (Fig. 6's 512 B string chunks
// and the 512 B node loads are 8 transactions each).
func (b *Block) LoadShared(dst int, src Ptr, n int) {
	b.dev.checkRange(src, n)
	if dst < 0 || dst+n > len(b.Shared) {
		panic(fmt.Sprintf("gpu: shared store [%d,%d) outside %d-byte shared memory",
			dst, dst+n, len(b.Shared)))
	}
	b.dev.read(src, b.Shared[dst:dst+n])
	b.chargeGlobal(b.transactions(src, n), n)
}

// StoreGlobal copies n bytes from shared memory at src to device
// memory at dst as a coalesced cooperative store.
func (b *Block) StoreGlobal(dst Ptr, src int, n int) {
	b.dev.checkRange(dst, n)
	if src < 0 || src+n > len(b.Shared) {
		panic("gpu: shared load out of range")
	}
	b.dev.write(dst, b.Shared[src:src+n])
	b.chargeGlobal(b.transactions(dst, n), n)
}

// GlobalRead copies n device bytes to a host-side scratch slice
// without shared-memory staging, modeling an uncoalesced per-lane
// gather: one transaction per WarpSize/2-lane half-warp element group,
// i.e. one per 4-byte word group touched. It is deliberately expensive
// and exists for the coalescing ablation.
func (b *Block) GlobalReadScattered(dst []byte, src Ptr) {
	n := len(dst)
	b.dev.checkRange(src, n)
	b.dev.read(src, dst)
	// Each 4-byte element from a distinct segment: charge one
	// transaction per element group of 4 bytes.
	txns := int64((n + 3) / 4)
	b.chargeGlobal(txns, n)
}

// ChargeDivergentLanes accounts warp divergence: n lanes of the warp
// took a different path than the rest, so the SM executes both sides
// serially. Charges one extra instruction issue per divergent lane
// group and records the event for the divergence statistics.
func (b *Block) ChargeDivergentLanes(n int) {
	if n <= 0 {
		return
	}
	b.ctr.divergent += int64(n)
	b.ctr.cycles += b.dev.cfg.InstrCycles
}

// ChargeScatteredRead accounts the cost of an uncoalesced read of n
// bytes without performing it, for cost-model ablations that disable
// an optimization semantically but keep execution identical.
func (b *Block) ChargeScatteredRead(n int) {
	b.chargeGlobal(int64((n+3)/4), n)
}

// GlobalWriteScattered is the store counterpart of GlobalReadScattered.
func (b *Block) GlobalWriteScattered(dst Ptr, src []byte) {
	n := len(src)
	b.dev.checkRange(dst, n)
	b.dev.write(dst, src)
	txns := int64((n + 3) / 4)
	b.chargeGlobal(txns, n)
}

// SharedI32 reads a little-endian int32 from shared memory.
func (b *Block) SharedI32(off int) int32 {
	s := b.Shared[off : off+4]
	return int32(s[0]) | int32(s[1])<<8 | int32(s[2])<<16 | int32(s[3])<<24
}

// PutSharedI32 writes a little-endian int32 into shared memory.
func (b *Block) PutSharedI32(off int, v int32) {
	s := b.Shared[off : off+4]
	s[0], s[1], s[2], s[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// ChargeSharedAccess charges one half-warp shared-memory access where
// laneWords[i] is the word address touched by lane i. Lanes hitting
// the same bank with different addresses serialize; lanes reading the
// same address broadcast. Returns the conflict degree charged (1 =
// conflict-free).
func (b *Block) ChargeSharedAccess(laneWords []int) int {
	banks := b.dev.cfg.SharedBanks
	half := b.Dim / 2
	if half == 0 {
		half = len(laneWords)
	}
	if cap(b.bankCounts) < banks {
		b.bankCounts = make([]int, banks)
	}
	counts := b.bankCounts[:banks]
	worst := 1
	for start := 0; start < len(laneWords); start += half {
		end := start + half
		if end > len(laneWords) {
			end = len(laneWords)
		}
		seg := laneWords[start:end]
		for i := range counts {
			counts[i] = 0
		}
		// Count distinct addresses per bank: a repeated address within
		// the half-warp broadcasts (counted once), distinct addresses on
		// the same bank serialize. Segments are half-warp sized, so the
		// quadratic dedup scan beats any map-based set.
		degree := 1
		for i, w := range seg {
			dup := false
			for _, prev := range seg[:i] {
				if prev == w {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			bank := w % banks
			counts[bank]++
			if counts[bank] > degree {
				degree = counts[bank]
			}
		}
		b.ctr.sharedAcc++
		b.ctr.cycles += int64(degree) * b.dev.cfg.SharedAccessCycles
		if degree > 1 {
			b.ctr.conflicts += int64(degree - 1)
		}
		if degree > worst {
			worst = degree
		}
	}
	return worst
}

// SharedCharge is what one ChargeSharedAccess call charged: the cost of
// an access pattern that is a constant of a kernel's data layout (a
// node's 31 cache words, say), measured once and replayed per access.
type SharedCharge struct {
	accesses  int64 // half-warp accesses
	cycles    int64
	conflicts int64
}

// MeasureSharedAccess reports what ChargeSharedAccess(laneWords) charges
// on this block without charging it. The bank rule lives only in
// ChargeSharedAccess: this runs it and takes the counters back.
func (b *Block) MeasureSharedAccess(laneWords []int) SharedCharge {
	before := b.ctr
	b.ChargeSharedAccess(laneWords)
	c := SharedCharge{
		accesses:  b.ctr.sharedAcc - before.sharedAcc,
		cycles:    b.ctr.cycles - before.cycles,
		conflicts: b.ctr.conflicts - before.conflicts,
	}
	b.ctr = before
	return c
}

// ReplaySharedAccess charges a measured access again. The charge is
// valid on any block of the device it was measured on.
func (b *Block) ReplaySharedAccess(c SharedCharge) {
	b.ctr.sharedAcc += c.accesses
	b.ctr.cycles += c.cycles
	b.ctr.conflicts += c.conflicts
}

// ParallelMin performs a warp parallel reduction (Harris-style, the
// paper's Fig. 7 position search) over vals, returning the minimum
// value and its lane. It charges log2(warp) steps of compare
// instructions plus the shared traffic of the exchanged values.
func (b *Block) ParallelMin(vals []int32) (min int32, lane int) {
	n := len(vals)
	if n == 0 {
		return 0, -1
	}
	if cap(b.minVals) < n {
		b.minVals = make([]int32, n)
		b.minLanes = make([]int, n)
		b.minWords = make([]int, n/2+1)
	}
	v := b.minVals[:n]
	l := b.minLanes[:n]
	copy(v, vals)
	for i := range l {
		l[i] = i
	}
	for stride := n / 2; stride > 0; stride /= 2 {
		words := b.minWords[:0]
		for i := 0; i < stride; i++ {
			if v[i+stride] < v[i] {
				v[i] = v[i+stride]
				l[i] = l[i+stride]
			}
			words = append(words, i)
		}
		b.ChargeInstr(1) // one comparison instruction per step
		b.ChargeSharedAccess(words)
	}
	// Odd tail (n not a power of two): fold linearly.
	for i := 1; i < n; i++ {
		if v[i] < v[0] {
			v[0], l[0] = v[i], l[i]
		}
	}
	return v[0], l[0]
}
