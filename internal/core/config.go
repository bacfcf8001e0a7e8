// Package core implements the paper's complete pipelined indexing
// system (§III, Fig. 1/8/9): parallel parsers fed by a serialized disk
// scheduler, the sampling-driven CPU/GPU collection split, CPU and GPU
// indexers consuming parsed blocks in strict order, per-run postings
// output, and the final dictionary combine/write.
//
// The engine executes the full computation — every document is parsed,
// every term inserted into a real dictionary, every posting emitted and
// optionally written to disk — while the parallel timing of the paper's
// hardware is obtained from the pipesim schedule fed with measured
// per-stage serial durations (CPU stages), the GPU simulator's cycle
// model (GPU shares), and the disk bandwidth model (reads). This split
// keeps results correct everywhere and timing shapes reproducible even
// on single-core hosts.
package core

import (
	"fmt"

	"fastinvert/internal/encoding"
	"fastinvert/internal/gpu"
	"fastinvert/internal/sampling"
	"fastinvert/internal/telemetry"
)

// Config selects the pipeline shape and models.
type Config struct {
	// Parsers is M, the number of parser threads (Fig. 10 sweeps 1-7).
	Parsers int

	// CPUIndexers is N1; CPUIndexers+Parsers is bounded by the
	// modeled core count on the paper's machine, but the engine does
	// not enforce that — Fig. 10 needs the full sweep.
	CPUIndexers int

	// GPUs is N2, the number of simulated GPU devices.
	GPUs int

	// GPU is the device model for each GPU (TeslaC1060 by default,
	// with a smaller memory for test scale).
	GPU gpu.Config

	// Sampling tunes the popularity sample (§III.E).
	Sampling sampling.Config

	// DiskBytesPerSec and DiskLatencySec model the serialized
	// container-file reads; the paper's source is a remote disk over
	// 1 Gb Ethernet (~117 MB/s).
	DiskBytesPerSec float64
	DiskLatencySec  float64

	// CPUThroughputScale scales measured CPU stage durations to the
	// modeled platform. 1.0 reports this host's own speeds.
	CPUThroughputScale float64

	// BufferPerParser is the parsed-block buffer depth per parser.
	BufferPerParser int

	// OutDir, when non-empty, receives run files, the docmap and the
	// dictionary. When empty the postings are still built and
	// compressed (so post-processing cost is real) but not persisted.
	OutDir string

	// NoCacheDictionary disables the B-tree string caches (ablation).
	NoCacheDictionary bool

	// RandomSplit replaces the popularity-based CPU/GPU collection
	// split with a seeded random popular set (ablation of §III.E).
	RandomSplit     bool
	RandomSplitSeed int64

	// KeepPerFileStats retains Fig. 11's per-file series.
	KeepPerFileStats bool

	// OverlapGPUTransfers models double-buffered CUDA streams: the
	// next run's host-to-device input transfer overlaps the current
	// kernel, so a GPU's per-run share becomes max(transfer, kernel)
	// plus the output copy, instead of their sum. The paper's §IV.B
	// identifies input transfer as a limit on multi-GPU indexing.
	OverlapGPUTransfers bool

	// Positional builds positional postings: every occurrence carries
	// its in-document token position through the parsed streams, both
	// indexer classes, and into the run files — enabling phrase
	// queries (the paper's Ivory comparison notes positional postings
	// as the heavier-output variant, §IV.D).
	Positional bool

	// StopWords overrides the default English stop-word list (nil
	// keeps the default; an empty non-nil slice disables stop-word
	// removal entirely).
	StopWords []string

	// RunCodec selects how run files encode postings lists: "auto"
	// for per-list self-tuning selection, a codec name ("varbyte",
	// "gamma", "golomb", "bitpack", "eliasfano") to force one codec,
	// or empty for varbyte runs and a self-tuned merge.
	RunCodec string

	// Progress, when non-nil, is invoked after each container file
	// completes its run (done of total files). Called from the build
	// goroutine; keep it fast.
	Progress func(done, total int)

	// Concurrent runs the pipeline with real goroutine parallelism
	// (disk reader, M parsers, parallel indexer fan-out) instead of
	// the serial executor. Output is bit-identical either way; on a
	// multicore host the concurrent executor overlaps the stages the
	// way the paper's threads do. Timing reports are modeled
	// identically in both modes.
	Concurrent bool

	// Hooks exposes fault-injection points inside the pipeline stages,
	// used by the differential verification harness (internal/verify)
	// to prove the build either completes correctly or fails cleanly.
	// nil (the normal case) is a no-op.
	Hooks *Hooks

	// Observer receives stage-level telemetry from the same pipeline
	// boundaries the Hooks fire at — read/parse/index/flush spans with
	// bytes/tokens/docs, buffer-occupancy samples from the sequencer,
	// and per-trie-collection token totals for CPU/GPU split-skew
	// analysis. telemetry.NewCollector is the standard implementation
	// (registry metrics, JSONL trace, live progress); nil disables
	// observation at the cost of one nil check per boundary. Observer
	// methods run on stage goroutines in the concurrent executor and
	// must be safe for concurrent use.
	Observer telemetry.Observer
}

// Hooks are optional callbacks fired at the pipeline's stage
// boundaries. A hook returning a non-nil error aborts the build with
// that error after the stage goroutines drain — no goroutine may be
// left behind. Hooks run on stage goroutines in the concurrent
// executor and must be safe for concurrent use.
type Hooks struct {
	// AfterParse fires in the parser stage once file f is parsed,
	// before its block is handed to the sequencer.
	AfterParse func(file int) error

	// BeforeIndex fires in the sequencer before file f's block fans
	// out to the indexers (the indexer-buffer boundary).
	BeforeIndex func(file int) error

	// BeforeWriteRun fires before file f's run is combined,
	// compressed and written (the store-writer boundary).
	BeforeWriteRun func(file int) error
}

func (h *Hooks) afterParse(f int) error {
	if h == nil || h.AfterParse == nil {
		return nil
	}
	return h.AfterParse(f)
}

func (h *Hooks) beforeIndex(f int) error {
	if h == nil || h.BeforeIndex == nil {
		return nil
	}
	return h.BeforeIndex(f)
}

func (h *Hooks) beforeWriteRun(f int) error {
	if h == nil || h.BeforeWriteRun == nil {
		return nil
	}
	return h.BeforeWriteRun(f)
}

// DefaultConfig mirrors the paper's best configuration (§IV.C): six
// parsers, two CPU indexers, two GPUs.
func DefaultConfig() Config {
	g := gpu.TeslaC1060()
	g.DeviceMemBytes = 256 << 20
	return Config{
		Parsers:            6,
		CPUIndexers:        2,
		GPUs:               2,
		GPU:                g,
		Sampling:           sampling.DefaultConfig(),
		DiskBytesPerSec:    117e6, // 1 Gb Ethernet payload rate
		DiskLatencySec:     2e-3,
		CPUThroughputScale: 1.0,
		BufferPerParser:    1,
		KeepPerFileStats:   true,
	}
}

func (c Config) validate() error {
	if c.Parsers < 1 {
		return fmt.Errorf("core: need at least one parser")
	}
	if c.CPUIndexers < 0 || c.GPUs < 0 {
		return fmt.Errorf("core: negative indexer counts")
	}
	if c.CPUIndexers+c.GPUs == 0 {
		return fmt.Errorf("core: need at least one indexer (Fig. 10's parser-only scenario is ParseOnly)")
	}
	if c.DiskBytesPerSec <= 0 {
		return fmt.Errorf("core: disk bandwidth must be positive")
	}
	if c.RunCodec != "" {
		if _, err := encoding.SelectorFor(c.RunCodec); err != nil {
			return fmt.Errorf("core: run codec: %w", err)
		}
	}
	return nil
}
