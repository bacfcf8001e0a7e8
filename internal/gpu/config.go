// Package gpu provides a CUDA-like SIMT execution substrate in pure Go.
//
// The paper's GPU indexer runs on two NVIDIA Tesla C1060 cards; Go has
// no usable CUDA bindings, so this package substitutes a simulator
// that (a) actually executes warp-style kernels, one thread block after
// another on the launching goroutine, and (b) charges a cycle-level
// cost model for exactly the effects the paper optimizes: coalesced
// versus scattered device-memory transactions, shared-memory staging
// and bank conflicts, warp instruction issue, and PCIe transfers. Each
// block is charged to the streaming multiprocessor whose simulated
// clock is lowest, so a launch's modeled time depends on its input
// alone, never on how the host scheduled it.
//
// Kernels are written against the Block API: a loop over the lanes,
// charged as one warp instruction, models a lockstep section; explicit
// LoadShared / StoreGlobal calls model data movement; and every
// operation updates the block's cycle counter. Launch returns aggregate
// Stats including the simulated kernel time on the modeled hardware.
package gpu

// Config describes the simulated GPU.
type Config struct {
	// Name identifies the modeled part in reports.
	Name string

	// SMs is the number of streaming multiprocessors; each executes
	// one thread block at a time in this model (the paper's indexer
	// uses 32-thread blocks, far below the SM occupancy limits, and
	// its throughput is bounded by memory behaviour, not occupancy).
	SMs int

	// CoresPerSM is the number of scalar cores (SPs) per SM.
	CoresPerSM int

	// WarpSize is the number of lanes that execute in lockstep.
	WarpSize int

	// SharedMemPerBlock is the shared memory available to one block.
	SharedMemPerBlock int

	// ClockHz is the SP clock used to convert cycles to seconds.
	ClockHz float64

	// MemLatencyCycles is the device-memory access latency charged
	// once per dependent transaction batch (400-600 on the C1060).
	MemLatencyCycles int64

	// ResidentBlocksPerSM models latency hiding: with R blocks
	// resident per SM (up to 8 on the C1060), a stalled warp's memory
	// latency overlaps with other warps' execution, so each block is
	// charged MemLatencyCycles/R per dependent access. 1 disables
	// hiding.
	ResidentBlocksPerSM int64

	// SegmentBytes is the coalescing granularity: simultaneous
	// accesses within one segment fuse into one transaction
	// ("contiguous 16-word lines" = 64 bytes on the C1060).
	SegmentBytes int

	// SegmentCycles is the issue cost per 64-byte transaction, the
	// bandwidth term of the model.
	SegmentCycles int64

	// SharedBanks is the number of shared-memory banks (16 on the
	// C1060, addressed per 4-byte word per half-warp).
	SharedBanks int

	// SharedAccessCycles is the cost of one conflict-free shared
	// access by a half-warp.
	SharedAccessCycles int64

	// InstrCycles is the issue cost of one warp instruction
	// (32 lanes over 8 cores = 4 clocks on the C1060).
	InstrCycles int64

	// PCIeBytesPerSec models host<->device copies.
	PCIeBytesPerSec float64

	// PCIeLatencySec is the fixed per-copy overhead.
	PCIeLatencySec float64

	// DeviceMemBytes is the device memory capacity, allocated in full
	// at creation (virtual memory: pages commit on first touch).
	DeviceMemBytes int
}

// TeslaC1060 returns the configuration of the paper's GPU: 30 SMs of
// 8 cores at 1.296 GHz, 16 KB shared memory, 102 GB/s device memory,
// PCIe 2.0 x16 host link.
func TeslaC1060() Config {
	return Config{
		Name:                "Tesla C1060",
		SMs:                 30,
		CoresPerSM:          8,
		WarpSize:            32,
		SharedMemPerBlock:   16 << 10,
		ClockHz:             1.296e9,
		MemLatencyCycles:    500,
		ResidentBlocksPerSM: 4,
		SegmentBytes:        64,
		SegmentCycles:       16,
		SharedBanks:         16,
		SharedAccessCycles:  2,
		InstrCycles:         4,
		PCIeBytesPerSec:     5.5e9,
		PCIeLatencySec:      10e-6,
		DeviceMemBytes:      4 << 30,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) validate() error {
	switch {
	case c.SMs <= 0:
		return errConfig("SMs")
	case c.WarpSize <= 0:
		return errConfig("WarpSize")
	case c.SharedMemPerBlock <= 0:
		return errConfig("SharedMemPerBlock")
	case c.ClockHz <= 0:
		return errConfig("ClockHz")
	case c.SegmentBytes <= 0:
		return errConfig("SegmentBytes")
	case c.SharedBanks <= 0:
		return errConfig("SharedBanks")
	case c.DeviceMemBytes <= 0:
		return errConfig("DeviceMemBytes")
	}
	return nil
}

type errConfig string

func (e errConfig) Error() string { return "gpu: invalid config field " + string(e) }
