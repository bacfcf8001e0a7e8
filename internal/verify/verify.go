package verify

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fastinvert/internal/baselines"
	"fastinvert/internal/core"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/postings"
	"fastinvert/internal/reference"
	"fastinvert/internal/store"
)

// Config shapes one differential run.
type Config struct {
	// Gen describes the randomized corpus; a zero value derives
	// DefaultGenConfig from Seed at run time.
	Gen GenConfig

	// Seed is used when Gen is zero, and always stamped on the result.
	Seed int64

	// Positional builds with per-occurrence positions; the positional
	// reference build then pins them.
	Positional bool

	// Parsers, CPUIndexers and GPUs shape the pipeline. Zero values
	// derive a shape from the seed so a seed sweep covers different
	// round-robin widths (the ordering claim is per-M, Fig. 8/9).
	Parsers     int
	CPUIndexers int
	GPUs        int

	// OutDir receives the pipeline's index; empty selects a temp dir
	// removed when the run ends.
	OutDir string

	// MaxDiffs caps recorded disagreements per comparison (<=0: 8).
	MaxDiffs int
}

// Comparison is one trusted build matched against the pipeline index.
type Comparison struct {
	Name string
	Err  error // trusted build failed (nil normally)
	Diff *DiffReport
}

// Result is the outcome of one differential run.
type Result struct {
	Seed        int64
	Files       int
	Docs        int64
	Terms       int
	Postings    int64
	Structural  *store.VerifyReport // store-level invariants of the pipeline index
	Comparisons []Comparison        // reference + every baseline
}

// OK reports whether the pipeline index passed every check.
func (r *Result) OK() bool {
	for _, c := range r.Comparisons {
		if c.Err != nil || !c.Diff.OK() {
			return false
		}
	}
	return true
}

// Summary renders a one-run report, diff details included on failure.
func (r *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d: %d files, %d docs, %d terms, %d postings",
		r.Seed, r.Files, r.Docs, r.Terms, r.Postings)
	for _, c := range r.Comparisons {
		if c.Err != nil {
			fmt.Fprintf(&sb, "\n  %s: build error: %v", c.Name, c.Err)
			continue
		}
		fmt.Fprintf(&sb, "\n  %s", c.Diff.String())
	}
	return sb.String()
}

// engineConfig derives a small deterministic pipeline shape for a
// differential run: real sampling, concurrent executor, simulated GPU
// scaled down to test size.
func engineConfig(cfg Config) core.Config {
	ec := core.DefaultConfig()
	h := uint64(cfg.Seed) * 0x9E3779B97F4A7C15
	ec.Parsers = cfg.Parsers
	if ec.Parsers <= 0 {
		ec.Parsers = 1 + int(h%3) // 1..3 parsers: different round-robin widths
	}
	ec.CPUIndexers = cfg.CPUIndexers
	ec.GPUs = cfg.GPUs
	if cfg.CPUIndexers <= 0 && cfg.GPUs <= 0 {
		ec.CPUIndexers = 1 + int(h>>8%2)
		ec.GPUs = int(h >> 16 % 2)
	}
	g := gpu.TeslaC1060()
	g.SMs = 4
	g.DeviceMemBytes = 64 << 20
	ec.GPU = g
	ec.Sampling.Ratio = 0.25
	ec.Positional = cfg.Positional
	ec.Concurrent = true
	ec.KeepPerFileStats = false
	return ec
}

// Run executes one differential round: generate the corpus, build it
// through the concurrent pipelined executor, check the store-level
// invariants, then rebuild through the reference indexer and every
// baseline and diff the pipeline's postings against each.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Gen == (GenConfig{}) {
		cfg.Gen = DefaultGenConfig(cfg.Seed)
	}
	cfg.Seed = cfg.Gen.Seed
	src := NewSource(cfg.Gen)

	outDir := cfg.OutDir
	if outDir == "" {
		tmp, err := os.MkdirTemp("", "hetverify-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		outDir = filepath.Join(tmp, "idx")
	}

	res := &Result{Seed: cfg.Seed, Files: src.NumFiles()}
	rep, err := buildPipeline(ctx, cfg, src, outDir, nil)
	if err != nil {
		return nil, fmt.Errorf("verify: pipeline build (seed %d): %w", cfg.Seed, err)
	}
	res.Docs = rep.Docs

	sv, err := store.Verify(outDir)
	if err != nil {
		return nil, fmt.Errorf("verify: structural check (seed %d): %w", cfg.Seed, err)
	}
	res.Structural = sv
	res.Terms = sv.Terms
	res.Postings = sv.Postings

	pipeline, err := readBack(outDir)
	if err != nil {
		return nil, fmt.Errorf("verify: read-back (seed %d): %w", cfg.Seed, err)
	}

	// Reference serial indexer: the ground truth, positional when the
	// pipeline is.
	var ref *reference.Index
	if cfg.Positional {
		ref, err = reference.BuildPositionalFromSource(src)
	} else {
		ref, err = reference.BuildFromSource(src)
	}
	cmp := Comparison{Name: "reference", Err: err}
	if err == nil {
		cmp.Diff = DiffLists("reference", pipeline, ref.Lists, cfg.MaxDiffs)
		if ref.Docs != rep.Docs {
			cmp.Diff.Diffs = append(cmp.Diff.Diffs, TermDiff{
				Term: "(corpus)", Kind: "doc-count",
				Detail: fmt.Sprintf("pipeline indexed %d docs, reference %d", rep.Docs, ref.Docs),
			})
		}
	}
	res.Comparisons = append(res.Comparisons, cmp)

	// Every baseline through the shared Build seam.
	for _, b := range baselines.All() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		bres, err := b.Build(src)
		cmp := Comparison{Name: b.Name, Err: err}
		if err == nil {
			cmp.Diff = DiffLists(b.Name, pipeline, bres.Lists, cfg.MaxDiffs)
		}
		res.Comparisons = append(res.Comparisons, cmp)
	}

	// Merged-path parity, run twice with different codec selections:
	// first a forced-varbyte merge (long lists blocked all the same), then a
	// self-tuned merge where the selector picks a codec per list. Each
	// merge re-verifies the structure (which now validates the merged
	// file against the runs) and re-reads every term through the merged
	// file; both read-backs must match the per-run assembly read above,
	// proving term-by-term parity between any two codec selections.
	for _, mc := range []struct{ name, codec string }{
		{"merged-varbyte", "varbyte"},
		{"merged", "auto"},
	} {
		mcmp := Comparison{Name: mc.name}
		mergedLists, err := mergeAndReadBack(outDir, mc.codec)
		mcmp.Err = err
		if err == nil {
			mcmp.Diff = DiffLists(mc.name, mergedLists, pipeline, cfg.MaxDiffs)
		}
		res.Comparisons = append(res.Comparisons, mcmp)
	}

	// Ranked retrieval differential over the final (auto-codec, blocked)
	// merged index: the pruned evaluator and the exhaustive scorer each
	// against the harness's reference scorer, plus the skip-table bounds
	// check on every list.
	res.Comparisons = append(res.Comparisons, rankComparisons(outDir, pipeline, rep.Docs, cfg.MaxDiffs)...)
	return res, nil
}

// mergeAndReadBack merges the index with the given codec selection
// ("auto" or a forced codec name), checks the merged file is both
// structurally valid and actually served, and reads every term back
// through it.
func mergeAndReadBack(dir, codec string) (map[string]*postings.List, error) {
	idx, err := store.OpenIndexWith(dir, store.ReaderOptions{MergeCodec: codec})
	if err != nil {
		return nil, err
	}
	if _, err := idx.Merge(); err != nil {
		idx.Close()
		return nil, fmt.Errorf("verify: merge: %w", err)
	}
	idx.Close()
	if _, err := store.Verify(dir); err != nil {
		return nil, fmt.Errorf("verify: post-merge structural check: %w", err)
	}
	idx2, err := store.OpenIndex(dir)
	if err != nil {
		return nil, err
	}
	defer idx2.Close()
	if !idx2.MergedActive() {
		return nil, fmt.Errorf("verify: merged file written but not served")
	}
	out := make(map[string]*postings.List, idx2.Terms())
	for _, e := range idx2.Dictionary() {
		l, err := idx2.Postings(e.Term)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", e.Term, err)
		}
		out[e.Term] = l
	}
	st := idx2.Stats()
	if st.MergedHits == 0 || st.RunFallbacks != 0 {
		return nil, fmt.Errorf("verify: merged read-back used the fallback path (%+v)", st)
	}
	return out, nil
}

// buildPipeline runs the concurrent executor over src into outDir.
// hooks is non-nil only under chaos.
func buildPipeline(ctx context.Context, cfg Config, src corpus.Source,
	outDir string, hooks *core.Hooks) (*core.Report, error) {
	ec := engineConfig(cfg)
	ec.OutDir = outDir
	ec.Hooks = hooks
	eng, err := core.New(ec)
	if err != nil {
		return nil, err
	}
	return eng.BuildConcurrentContext(ctx, src)
}

// readBack loads the pipeline's persisted index into a term -> merged
// postings map, the shape the trusted builds produce directly.
func readBack(dir string) (map[string]*postings.List, error) {
	idx, err := store.OpenIndex(dir)
	if err != nil {
		return nil, err
	}
	defer idx.Close()
	out := make(map[string]*postings.List, idx.Terms())
	for _, e := range idx.Dictionary() {
		l, err := idx.Postings(e.Term)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", e.Term, err)
		}
		out[e.Term] = l
	}
	return out, nil
}
