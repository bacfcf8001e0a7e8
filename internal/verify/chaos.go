package verify

import (
	"compress/flate"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/reference"
	"fastinvert/internal/store"
)

// ErrInjected marks a fault introduced by the chaos layer. A build hit
// by an injected stage fault must surface an error wrapping this
// sentinel — anything else (a different error, a success, a hang, a
// leaked goroutine) is a harness failure.
var ErrInjected = errors.New("verify: injected fault")

// Fault selects what the chaos layer breaks.
type Fault int

const (
	// FaultNone runs the pipeline untouched; the outcome must be a
	// verified-correct index (the chaos control group).
	FaultNone Fault = iota

	// FaultSlowRead delays every container-file read by Delay without
	// corrupting anything; the build must still complete correctly
	// (the pipeline may reorder internally but not its output).
	FaultSlowRead

	// FaultReadError fails the source read of file At.
	FaultReadError

	// FaultParseError fails the parser stage at file At.
	FaultParseError

	// FaultIndexError fails the indexer hand-off at file At.
	FaultIndexError

	// FaultWriteError fails the store writer at file At.
	FaultWriteError

	// FaultCancel cancels the build context after At files are read.
	FaultCancel

	// FaultTruncateStored drops the second half of file At's stored
	// gzip, on every read, keeping only its 8-byte trailer — so the
	// file still states its true length (a bare truncation leaves
	// deflate bytes where the length should be, and a sampler told the
	// file is huge reads up to the cut itself). The sampling phase
	// inflates only the head of each file, so it is the parse stage
	// that must refuse this one: the build has to fail there with a
	// gzip stream error and leave nothing store.Verify accepts.
	// RunChaos forces a gzip corpus whose files are long enough that
	// the sampled head ends before the cut.
	FaultTruncateStored

	// FaultTruncateRun truncates a run file after a clean build; the
	// reopened index must fail with ErrCorruptIndex.
	FaultTruncateRun

	// FaultBitFlipRun flips one bit inside a run file's CRC-covered
	// region (table + blob) after a clean build.
	FaultBitFlipRun

	// FaultTruncateDict truncates the dictionary after a clean build.
	FaultTruncateDict

	// FaultGarbageDocmap overwrites docmap.json with invalid JSON
	// after a clean build.
	FaultGarbageDocmap

	// FaultTruncateMerged merges the index after a clean build, then
	// truncates merged.post (the torn state a crashed non-atomic write
	// would leave). Verify must flag it AND queries must fall back to
	// correct per-run assembly.
	FaultTruncateMerged

	// FaultBitFlipMerged merges, then flips one bit inside merged.post's
	// CRC-covered region; same requirements as FaultTruncateMerged.
	FaultBitFlipMerged
)

// String names the fault for reports.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSlowRead:
		return "slow-read"
	case FaultReadError:
		return "read-error"
	case FaultParseError:
		return "parse-error"
	case FaultIndexError:
		return "index-error"
	case FaultWriteError:
		return "write-error"
	case FaultCancel:
		return "cancel"
	case FaultTruncateStored:
		return "truncate-stored"
	case FaultTruncateRun:
		return "truncate-run"
	case FaultBitFlipRun:
		return "bitflip-run"
	case FaultTruncateDict:
		return "truncate-dict"
	case FaultGarbageDocmap:
		return "garbage-docmap"
	case FaultTruncateMerged:
		return "truncate-merged"
	case FaultBitFlipMerged:
		return "bitflip-merged"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// ChaosConfig selects one injected fault.
type ChaosConfig struct {
	Fault Fault
	// At is the file index a stage fault fires on (read/parse/index/
	// write/cancel faults).
	At int
	// Delay is the per-read latency for FaultSlowRead.
	Delay time.Duration
	// Seed drives the corruption position for FaultBitFlipRun.
	Seed int64
}

// ChaosResult is the audited outcome of one chaos run.
type ChaosResult struct {
	Fault ChaosConfig

	// Err is the terminal error observed: the build error for stage
	// faults, the reopen/verify error for corruption faults, nil when
	// the pipeline completed (and was then verified correct).
	Err error

	// Correct is set when the run produced an index that passed the
	// structural check and matched the reference build.
	Correct bool

	// TypedError is set when Err matches an accepted sentinel:
	// ErrInjected, context.Canceled, context.DeadlineExceeded,
	// store.ErrCorruptIndex or, under FaultTruncateStored, one of
	// compress/gzip's stream errors.
	TypedError bool

	// LeakedGoroutines counts goroutines still alive (beyond the
	// pre-run baseline) after a settle window; 0 is the requirement.
	LeakedGoroutines int
}

// OK reports the chaos invariant: a correct index or a typed error,
// and no goroutine leaks.
func (r *ChaosResult) OK() bool {
	return (r.Correct || r.TypedError) && r.LeakedGoroutines == 0
}

// String renders the outcome.
func (r *ChaosResult) String() string {
	state := "typed error"
	if r.Correct {
		state = "verified correct"
	} else if !r.TypedError {
		state = fmt.Sprintf("UNTYPED error: %v", r.Err)
	}
	return fmt.Sprintf("%s@%d: %s (err=%v, leaked=%d)",
		r.Fault.Fault, r.Fault.At, state, r.Err, r.LeakedGoroutines)
}

// truncateStoredMinDocs documents per file make a container of ~26 KiB,
// whose sampled head (a few KiB) ends well before the half-way cut.
const truncateStoredMinDocs = 128

// isGzipDamage reports whether err is one of the ways compress/gzip
// refuses a damaged stream.
func isGzipDamage(err error) bool {
	var corrupt flate.CorruptInputError
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, gzip.ErrChecksum) ||
		errors.As(err, &corrupt)
}

// chaosSource wraps the corpus to inject read-stage faults. ReadFile
// is called from the sampling phase and the disk goroutine; the
// injected behaviors must therefore be safe under either caller.
type chaosSource struct {
	corpus.Source
	chaos  ChaosConfig
	cancel context.CancelFunc
}

func (s *chaosSource) ReadFile(i int) ([]byte, bool, error) {
	switch s.chaos.Fault {
	case FaultSlowRead:
		time.Sleep(s.chaos.Delay)
	case FaultReadError:
		if i == s.chaos.At {
			return nil, false, fmt.Errorf("read file %d: %w", i, ErrInjected)
		}
	case FaultCancel:
		if i == s.chaos.At {
			s.cancel()
		}
	case FaultTruncateStored:
		if i == s.chaos.At {
			stored, gz, err := s.Source.ReadFile(i)
			if err != nil {
				return nil, false, err
			}
			cut := append(stored[:len(stored)/2:len(stored)/2], stored[len(stored)-8:]...)
			return cut, gz, nil
		}
	}
	return s.Source.ReadFile(i)
}

// RunChaos executes one build under an injected fault and audits the
// outcome: the pipeline must end in a verified-correct index or a
// typed error, with every stage goroutine drained.
func RunChaos(ctx context.Context, cfg Config, chaos ChaosConfig) (*ChaosResult, error) {
	if cfg.Gen == (GenConfig{}) {
		cfg.Gen = DefaultGenConfig(cfg.Seed)
	}
	cfg.Seed = cfg.Gen.Seed
	if chaos.Fault == FaultTruncateStored {
		cfg.Gen.Compressed = true
		cfg.Gen.DocsPerFile = max(cfg.Gen.DocsPerFile, truncateStoredMinDocs)
	}

	tmp, err := os.MkdirTemp("", "hetchaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	outDir := filepath.Join(tmp, "idx")

	res := &ChaosResult{Fault: chaos}
	before := runtime.NumGoroutine()

	buildCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	src := &chaosSource{Source: NewSource(cfg.Gen), chaos: chaos, cancel: cancel}

	stageFault := func(fault Fault) func(int) error {
		if chaos.Fault != fault {
			return nil
		}
		return func(f int) error {
			if f == chaos.At {
				return fmt.Errorf("%s at file %d: %w", fault, f, ErrInjected)
			}
			return nil
		}
	}
	hooks := &core.Hooks{
		AfterParse:     stageFault(FaultParseError),
		BeforeIndex:    stageFault(FaultIndexError),
		BeforeWriteRun: stageFault(FaultWriteError),
	}

	_, buildErr := buildPipeline(buildCtx, cfg, src, outDir, hooks)
	res.LeakedGoroutines = settleGoroutines(before)
	res.Err = buildErr

	if buildErr == nil {
		// The build survived (fault never fired, was benign, or was
		// post-build corruption). Corrupt now if asked, then audit.
		if err := injectCorruption(outDir, chaos); err != nil {
			return nil, err
		}
		if chaos.Fault == FaultTruncateMerged || chaos.Fault == FaultBitFlipMerged {
			res.Err = auditMergedFallback(outDir, cfg, src.Source)
		} else {
			res.Err = auditIndex(outDir, cfg, src.Source)
		}
		res.Correct = res.Err == nil
	}
	if buildErr != nil && chaos.Fault == FaultTruncateStored {
		if _, err := store.Verify(outDir); err == nil {
			res.Err = fmt.Errorf("verify: failed build left an index Verify accepts (build error: %v)", buildErr)
		}
	}
	res.TypedError = res.Err != nil &&
		(errors.Is(res.Err, ErrInjected) ||
			chaos.Fault == FaultTruncateStored && isGzipDamage(res.Err) ||
			errors.Is(res.Err, context.Canceled) ||
			errors.Is(res.Err, context.DeadlineExceeded) ||
			errors.Is(res.Err, store.ErrCorruptIndex))
	return res, nil
}

// auditIndex verifies structural invariants and reference equality of
// a completed build. nil means verified correct.
func auditIndex(outDir string, cfg Config, src corpus.Source) error {
	if _, err := store.Verify(outDir); err != nil {
		return err
	}
	got, err := readBack(outDir)
	if err != nil {
		return err
	}
	var ref *reference.Index
	if cfg.Positional {
		ref, err = reference.BuildPositionalFromSource(src)
	} else {
		ref, err = reference.BuildFromSource(src)
	}
	if err != nil {
		return fmt.Errorf("verify: reference build: %w", err)
	}
	if rep := DiffLists("reference", got, ref.Lists, 4); !rep.OK() {
		return fmt.Errorf("verify: completed index differs: %s", rep)
	}
	return nil
}

// settleGoroutines waits for the goroutine count to return to the
// pre-run baseline and reports the excess that never drained. The
// window is generous because parser goroutines may still be parsing a
// large block when the sequencer aborts.
func settleGoroutines(before int) int {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before {
			return 0
		}
		if time.Now().After(deadline) {
			return n - before
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// auditMergedFallback audits a corrupt-merged-file fault: the
// corruption must be detected by Verify as a typed error, the reopened
// reader must refuse to serve the merged file, and per-run fallback
// queries must still match the reference build exactly. Any deviation
// returns an untyped error, failing the chaos invariant.
func auditMergedFallback(outDir string, cfg Config, src corpus.Source) error {
	if _, err := store.Verify(outDir); !errors.Is(err, store.ErrCorruptIndex) {
		return fmt.Errorf("verify: corrupt merged file not flagged (got %v)", err)
	}
	idx, err := store.OpenIndex(outDir)
	if err != nil {
		return fmt.Errorf("verify: reopen with corrupt merged file: %w", err)
	}
	active := idx.MergedActive()
	idx.Close()
	if active {
		return errors.New("verify: corrupt merged file still served")
	}
	got, err := readBack(outDir)
	if err != nil {
		return fmt.Errorf("verify: fallback read-back: %w", err)
	}
	var ref *reference.Index
	if cfg.Positional {
		ref, err = reference.BuildPositionalFromSource(src)
	} else {
		ref, err = reference.BuildFromSource(src)
	}
	if err != nil {
		return fmt.Errorf("verify: reference build: %w", err)
	}
	if rep := DiffLists("merged-fallback", got, ref.Lists, 4); !rep.OK() {
		return fmt.Errorf("verify: fallback results differ: %s", rep)
	}
	return nil
}

// mergeIndexDir merges an index directory through a throwaway reader.
func mergeIndexDir(dir string) error {
	idx, err := store.OpenIndex(dir)
	if err != nil {
		return err
	}
	defer idx.Close()
	_, err = idx.Merge()
	return err
}

// injectCorruption damages the persisted index per the fault kind.
func injectCorruption(dir string, chaos ChaosConfig) error {
	switch chaos.Fault {
	case FaultTruncateMerged, FaultBitFlipMerged:
		if err := mergeIndexDir(dir); err != nil {
			return err
		}
		path := filepath.Join(dir, "merged.post")
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if chaos.Fault == FaultTruncateMerged {
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		}
		const runHdr = 24
		if len(data) <= runHdr {
			return fmt.Errorf("verify: merged file too small to corrupt")
		}
		rng := rand.New(rand.NewSource(chaos.Seed ^ 0x5EED5EED))
		bit := runHdr*8 + rng.Intn((len(data)-runHdr)*8)
		data[bit/8] ^= 1 << (bit % 8)
		return os.WriteFile(path, data, 0o644)
	case FaultTruncateRun, FaultBitFlipRun:
		name, err := firstRunFile(dir)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if chaos.Fault == FaultTruncateRun {
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		}
		// Flip one bit inside the CRC-covered region (everything past
		// the 24-byte header); header fields like the doc range are
		// deliberately NOT covered by the checksum, so only this
		// region guarantees detection.
		const runHdr = 24
		if len(data) <= runHdr {
			return fmt.Errorf("verify: run file %s too small to corrupt", name)
		}
		rng := rand.New(rand.NewSource(chaos.Seed ^ 0xB17F11B))
		bit := runHdr*8 + rng.Intn((len(data)-runHdr)*8)
		data[bit/8] ^= 1 << (bit % 8)
		return os.WriteFile(path, data, 0o644)
	case FaultTruncateDict:
		path := filepath.Join(dir, "dictionary.fidc")
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data[:len(data)/2], 0o644)
	case FaultGarbageDocmap:
		return os.WriteFile(filepath.Join(dir, "docmap.json"), []byte("{not json"), 0o644)
	}
	return nil
}

// firstRunFile returns the lexically first run file in the index dir.
func firstRunFile(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var runs []string
	for _, e := range entries {
		// Match only per-run files — never merged.post.
		if !e.IsDir() && strings.HasPrefix(e.Name(), "run-") && filepath.Ext(e.Name()) == ".post" {
			runs = append(runs, e.Name())
		}
	}
	if len(runs) == 0 {
		return "", fmt.Errorf("verify: no run files in %s", dir)
	}
	sort.Strings(runs)
	return runs[0], nil
}
