package gpu

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Ptr is a device-memory address (byte offset).
type Ptr int64

// Nil is the null device pointer.
const Nil Ptr = -1

// Device is one simulated GPU: a fixed-size device address space, bump
// allocators, and transfer/launch entry points.
//
// The address space is fixed at creation and addresses never move, so
// kernels may call Malloc/MallocTransient mid-launch, like device-side
// allocation on real hardware. Persistent allocations (Malloc) grow
// from the bottom; per-run transient buffers (MallocTransient) grow
// from the top and are released wholesale by FreeTransients, mirroring
// the paper's per-run cudaMalloc/cudaFree of input and output regions
// while the dictionary stays resident.
//
// Backing storage is chunked and lazily materialized: a 4 GiB device
// costs only the chunks actually touched, so creating a device (one
// per simulated GPU per engine) never zeroes gigabytes up front. A
// chunk pointer is published atomically exactly once; never-touched
// chunks read as zeros without being allocated.
type Device struct {
	cfg Config

	size    int64 // address-space bytes (cfg.DeviceMemBytes)
	chunks  []atomic.Pointer[memChunk]
	chunkMu sync.Mutex // serializes chunk materialization

	mu  sync.Mutex
	brk int64 // bottom break (persistent)
	top int64 // top break (transient); allocations live in [top, size)

	stats DeviceStats
}

// chunkShift sizes the lazy backing chunks (4 MiB): large enough that
// streaming copies cross few boundaries, small enough that a tiny
// working set stays tiny.
const chunkShift = 22

const chunkSize = 1 << chunkShift

type memChunk [chunkSize]byte

// chunk returns chunk i, materializing it (zeroed) on first touch.
func (d *Device) chunk(i int64) *memChunk {
	if c := d.chunks[i].Load(); c != nil {
		return c
	}
	d.chunkMu.Lock()
	defer d.chunkMu.Unlock()
	if c := d.chunks[i].Load(); c != nil {
		return c
	}
	c := new(memChunk)
	d.chunks[i].Store(c)
	return c
}

// read copies device bytes [p, p+len(dst)) into dst. Untouched chunks
// read as zeros without being materialized.
func (d *Device) read(p Ptr, dst []byte) {
	off := int64(p)
	for len(dst) > 0 {
		ci, co := off>>chunkShift, off&(chunkSize-1)
		n := chunkSize - co
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		if c := d.chunks[ci].Load(); c != nil {
			copy(dst[:n], c[co:co+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// write copies src into device memory at p.
func (d *Device) write(p Ptr, src []byte) {
	off := int64(p)
	for len(src) > 0 {
		ci, co := off>>chunkShift, off&(chunkSize-1)
		n := copy(d.chunk(ci)[co:], src)
		src = src[n:]
		off += int64(n)
	}
}

// zeroRange clears [p, p+n); chunks never materialized are already
// zero and stay unmaterialized.
func (d *Device) zeroRange(p Ptr, n int64) {
	off, end := int64(p), int64(p)+n
	for off < end {
		ci, co := off>>chunkShift, off&(chunkSize-1)
		m := chunkSize - co
		if m > end-off {
			m = end - off
		}
		if c := d.chunks[ci].Load(); c != nil {
			clear(c[co : co+m])
		}
		off += m
	}
}

// DeviceStats aggregates simulated activity over the device lifetime.
type DeviceStats struct {
	KernelsLaunched int64
	BlocksExecuted  int64
	Instructions    int64
	GlobalTxns      int64 // coalesced device-memory transactions
	GlobalBytes     int64
	SharedAccesses  int64
	BankConflicts   int64 // excess cycles lost to conflicts
	DivergentLanes  int64
	HtoDBytes       int64
	DtoHBytes       int64
	SimSeconds      float64 // simulated kernel + transfer time
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	d := &Device{cfg: cfg}
	d.size = int64(cfg.DeviceMemBytes)
	d.chunks = make([]atomic.Pointer[memChunk], (d.size+chunkSize-1)>>chunkShift)
	d.top = d.size
	return d, nil
}

// MustDevice is NewDevice for tests and examples with a known-good config.
func MustDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Malloc allocates n bytes of persistent device memory (zeroed). It is
// safe to call from kernels; it panics when device memory is exhausted,
// the analogue of a cudaMalloc failure.
func (d *Device) Malloc(n int) Ptr {
	if n < 0 {
		panic("gpu: negative allocation")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.brk+int64(n) > d.top {
		panic(fmt.Sprintf("gpu: out of device memory (%d persistent + %d requested, %d transient, %d total)",
			d.brk, n, d.size-d.top, d.size))
	}
	p := d.brk
	d.brk += int64(n)
	return Ptr(p)
}

// MallocTransient allocates n bytes from the transient (per-run)
// region at the top of device memory.
func (d *Device) MallocTransient(n int) Ptr {
	if n < 0 {
		panic("gpu: negative allocation")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.top-int64(n) < d.brk {
		panic(fmt.Sprintf("gpu: out of device memory for %d-byte transient", n))
	}
	d.top -= int64(n)
	d.zeroRange(Ptr(d.top), int64(n))
	return Ptr(d.top)
}

// FreeTransients releases every transient allocation (end of run).
// The backing chunks stay materialized so the next run reuses them
// without re-allocating; TrimTransients drops them when a build ends.
func (d *Device) FreeTransients() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.top = d.size
}

// TrimTransients releases every transient allocation and drops the
// backing chunks that held only transient data, bounding a long-lived
// engine's resident memory between builds by the persistent footprint
// (without it, every device keeps every chunk its largest build ever
// touched). Called at build end, not per run — re-materializing
// chunks on the hot path costs more than it saves. Dropping is
// invisible to later builds: dropped chunks read as zeros, fresh
// chunks materialize zeroed, and MallocTransient zeroes its range
// anyway. Chunks at or below the persistent break are never dropped.
func (d *Device) TrimTransients() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.top = d.size
	d.chunkMu.Lock()
	for i := (d.brk + chunkSize - 1) >> chunkShift; i < int64(len(d.chunks)); i++ {
		d.chunks[i].Store(nil)
	}
	d.chunkMu.Unlock()
}

// Reset releases all allocations, persistent and transient. The
// backing chunks are dropped wholesale — the next touches start from
// fresh zeroed chunks.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunkMu.Lock()
	for i := range d.chunks {
		d.chunks[i].Store(nil)
	}
	d.chunkMu.Unlock()
	d.brk = 0
	d.top = d.size
}

// Allocated reports the persistent allocation break.
func (d *Device) Allocated() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.brk
}

// TransientBytes reports the size of the live transient region.
func (d *Device) TransientBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size - d.top
}

// ResidentBytes reports how much backing memory is actually
// materialized — the simulator-host cost of the device, as opposed to
// the simulated address-space size.
func (d *Device) ResidentBytes() int64 {
	d.chunkMu.Lock()
	defer d.chunkMu.Unlock()
	var n int64
	for i := range d.chunks {
		if d.chunks[i].Load() != nil {
			n += chunkSize
		}
	}
	return n
}

// CopyHtoD copies host bytes into device memory and accounts the PCIe
// transfer time. It returns the simulated seconds the copy took.
func (d *Device) CopyHtoD(dst Ptr, src []byte) float64 {
	d.checkRange(dst, len(src))
	d.write(dst, src)
	sec := d.cfg.PCIeLatencySec + float64(len(src))/d.cfg.PCIeBytesPerSec
	d.mu.Lock()
	d.stats.HtoDBytes += int64(len(src))
	d.stats.SimSeconds += sec
	d.mu.Unlock()
	return sec
}

// CopyDtoH copies device bytes back to the host, returning simulated
// seconds.
func (d *Device) CopyDtoH(dst []byte, src Ptr) float64 {
	d.checkRange(src, len(dst))
	d.read(src, dst)
	sec := d.cfg.PCIeLatencySec + float64(len(dst))/d.cfg.PCIeBytesPerSec
	d.mu.Lock()
	d.stats.DtoHBytes += int64(len(dst))
	d.stats.SimSeconds += sec
	d.mu.Unlock()
	return sec
}

// Stats returns a snapshot of accumulated device statistics.
func (d *Device) Stats() DeviceStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// checkRange validates [p, p+n) against device memory bounds. Bounds
// are the full memory: allocation discipline is the allocator's job,
// while this guards against wild pointers.
func (d *Device) checkRange(p Ptr, n int) {
	if p < 0 || n < 0 || int64(p)+int64(n) > d.size {
		panic(fmt.Sprintf("gpu: access [%d,%d) outside %d-byte device memory", p, int64(p)+int64(n), d.size))
	}
}

// LaunchStats summarizes one kernel launch.
type LaunchStats struct {
	Blocks       int
	Instructions int64
	GlobalTxns   int64
	GlobalBytes  int64
	SharedAcc    int64
	Conflicts    int64
	Divergent    int64   // lanes that took a divergent warp path
	MaxSMCycles  int64   // largest SM clock: the grid's critical path
	TotalCycles  int64   // sum over blocks (work metric)
	SimSeconds   float64 // MaxSMCycles / clock
}

// Launch executes a grid of nBlocks thread blocks running kernel and
// returns the launch statistics. Blocks run in index order on the
// calling goroutine, and each is charged to the SM whose simulated
// clock is lowest when it starts: list scheduling, the paper's "next
// available trie collection" policy in device time, so MaxSMCycles is
// a function of the kernel's charges alone. A panic inside a kernel
// surfaces on the caller, like a fault at a synchronous CUDA launch.
func (d *Device) Launch(nBlocks int, kernel func(b *Block)) LaunchStats {
	if nBlocks <= 0 {
		return LaunchStats{}
	}
	smCycles := make([]int64, min(d.cfg.SMs, nBlocks))
	// Kernels may not retain the Block past their return, so one Block
	// (and its cost-model scratch) serves every block of the grid.
	b := &Block{dev: d, Dim: d.cfg.WarpSize, Shared: make([]byte, d.cfg.SharedMemPerBlock)}
	var sum blockCounters
	for bi := 0; bi < nBlocks; bi++ {
		clear(b.Shared)
		b.BlockIdx = bi
		b.ctr = blockCounters{}
		kernel(b)
		sm := 0
		for i, c := range smCycles {
			if c < smCycles[sm] {
				sm = i
			}
		}
		smCycles[sm] += b.ctr.cycles
		sum.add(&b.ctr)
	}

	ls := LaunchStats{
		Blocks:       nBlocks,
		Instructions: sum.instructions,
		GlobalTxns:   sum.globalTxns,
		GlobalBytes:  sum.globalBytes,
		SharedAcc:    sum.sharedAcc,
		Conflicts:    sum.conflicts,
		Divergent:    sum.divergent,
		MaxSMCycles:  slices.Max(smCycles),
		TotalCycles:  sum.cycles,
	}
	ls.SimSeconds = float64(ls.MaxSMCycles) / d.cfg.ClockHz

	d.mu.Lock()
	d.stats.KernelsLaunched++
	d.stats.BlocksExecuted += int64(nBlocks)
	d.stats.Instructions += ls.Instructions
	d.stats.GlobalTxns += ls.GlobalTxns
	d.stats.GlobalBytes += ls.GlobalBytes
	d.stats.SharedAccesses += ls.SharedAcc
	d.stats.BankConflicts += ls.Conflicts
	d.stats.DivergentLanes += ls.Divergent
	d.stats.SimSeconds += ls.SimSeconds
	d.mu.Unlock()
	return ls
}

type blockCounters struct {
	cycles       int64
	instructions int64
	globalTxns   int64
	globalBytes  int64
	sharedAcc    int64
	conflicts    int64
	divergent    int64
}

func (c *blockCounters) add(o *blockCounters) {
	c.cycles += o.cycles
	c.instructions += o.instructions
	c.globalTxns += o.globalTxns
	c.globalBytes += o.globalBytes
	c.sharedAcc += o.sharedAcc
	c.conflicts += o.conflicts
	c.divergent += o.divergent
}
