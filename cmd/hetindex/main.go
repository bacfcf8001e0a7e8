// Command hetindex builds inverted files from a corpus directory using
// the paper's pipelined CPU+GPU strategy and prints the timing report.
//
// Usage:
//
//	hetindex -corpus ./corpus -out ./index -parsers 6 -cpu 2 -gpu 2
//
// Without -corpus, a synthetic ClueWeb09-like collection is generated
// in memory (-files, -scale control its size), which makes the command
// a self-contained demonstration.
//
// With -merge, the paper's optional post-processing merge (§III.F)
// combines the per-run partial lists into a single merged.post after
// the build; subsequent readers then answer each term lookup with one
// positioned read instead of touching every run file.
//
// Observability:
//
//	-progress          live build ticker: docs/s, MB/s, ETA, per-stage utilization
//	-metrics FILE      Prometheus text snapshot of the build metrics ("-" = stdout)
//	-trace FILE        build trace, one JSONL record: per-stage spans on one lane
//	                   per worker (busy + derived stalls), per-collection token skew
//	-cpuprofile FILE   pprof CPU profile covering the build (and merge, if any)
//	-memprofile FILE   pprof allocation profile written at exit
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"fastinvert"
	"fastinvert/internal/corpus"
	"fastinvert/internal/gpu"
	"fastinvert/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetindex: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, builds (and merges, verifies,
// traces) as they ask, and prints the report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hetindex", flag.ExitOnError)
	var (
		corpusDir  = fs.String("corpus", "", "corpus directory (omit to generate in memory)")
		out        = fs.String("out", "", "index output directory (omit to skip persisting)")
		parsers    = fs.Int("parsers", 6, "parallel parser threads (M)")
		cpus       = fs.Int("cpu", 2, "CPU indexers (N1)")
		gpus       = fs.Int("gpu", 2, "GPU indexers (N2, simulated Tesla C1060)")
		files      = fs.Int("files", 16, "synthetic corpus: container files")
		scale      = fs.Float64("scale", 1.0, "synthetic corpus: size factor")
		gpuMem     = fs.Int("gpumem", 256, "simulated GPU device memory (MiB)")
		positional = fs.Bool("positional", false, "build positional postings (enables phrase queries)")
		concurrent = fs.Bool("concurrent", false, "run the goroutine-parallel executor")
		verify     = fs.Bool("verify", false, "run an integrity check on the written index")
		merge      = fs.Bool("merge", false, "run the post-processing merge on the written index (requires -out)")
		codecName  = fs.String("codec", "", "postings codec for run files and the -merge pass: \"auto\" self-tunes per list, or force one registered codec (varbyte, gamma, golomb, bitpack, eliasfano); empty = varbyte runs, self-tuned merge")
		progress   = fs.Bool("progress", false, "print a live progress ticker while building")
		metricsOut = fs.String("metrics", "", "write a Prometheus metrics snapshot to this file (\"-\" = stdout)")
		traceOut   = fs.String("trace", "", "write a JSONL build trace to this file")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = fs.String("memprofile", "", "write a pprof allocation profile to this file")
		verbose    = fs.Bool("v", false, "print the per-file throughput series")
	)
	fs.Parse(args)

	// The source is complete before the profile and the build's clock
	// start: a generated collection is materialized here, or the sampling
	// and read spans would time the generator.
	var src fastinvert.Source
	var err error
	if *corpusDir != "" {
		src, err = fastinvert.OpenCorpusDir(*corpusDir)
		if err != nil {
			return err
		}
	} else {
		src = corpus.NewMemSource(corpus.NewGenerator(corpus.ClueWeb09(*scale)), *files).Materialize()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := fastinvert.DefaultOptions()
	opts.Parsers = *parsers
	opts.CPUIndexers = *cpus
	opts.GPUs = *gpus
	opts.OutDir = *out
	opts.Positional = *positional
	opts.Concurrent = *concurrent
	opts.RunCodec = *codecName
	g := gpu.TeslaC1060()
	g.DeviceMemBytes = *gpuMem << 20
	opts.GPU = g

	// Any observability flag arms the collector; the build itself pays
	// one nil check per stage boundary otherwise.
	var col *telemetry.Collector
	var tw *telemetry.TraceWriter
	reg := telemetry.NewRegistry()
	if *progress || *metricsOut != "" || *traceOut != "" {
		if *traceOut != "" {
			tw, err = telemetry.CreateTraceFile(*traceOut)
			if err != nil {
				return err
			}
		}
		col = telemetry.NewCollector(reg, tw)
		opts.Observer = col
	}

	b, err := fastinvert.NewBuilder(opts)
	if err != nil {
		return err
	}

	stopTicker := startProgress(*progress, col)
	rep, err := b.Build(src)
	stopTicker()
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			return fmt.Errorf("trace: %w", cerr)
		}
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "collection: %d files, %d documents, %d tokens, %d distinct terms\n",
		rep.Files, rep.Docs, rep.Tokens, rep.Terms)
	fmt.Fprintf(w, "input: %.2f MB compressed, %.2f MB uncompressed\n",
		float64(rep.CompressedBytes)/(1<<20), float64(rep.UncompressedBytes)/(1<<20))
	fmt.Fprintf(w, "pipeline (modeled on %dP + %dC + %dG):\n", *parsers, *cpus, *gpus)
	fmt.Fprintf(w, "  sampling        %9.4f s (%d docs, %.1f of %.1f MB)\n", rep.SamplingSec,
		rep.SampledDocs, float64(rep.SampledBytes)/(1<<20), float64(rep.UncompressedBytes)/(1<<20))
	fmt.Fprintf(w, "  parsers span    %9.4f s\n", rep.ParsersSpanSec)
	fmt.Fprintf(w, "  indexers span   %9.4f s (pre %.4f / indexing %.4f / post %.4f)\n",
		rep.IndexersSpanSec, rep.PreProcessingSec, rep.IndexingSec, rep.PostProcessingSec)
	fmt.Fprintf(w, "  dict combine    %9.4f s\n", rep.DictCombineSec)
	fmt.Fprintf(w, "  dict write      %9.4f s\n", rep.DictWriteSec)
	fmt.Fprintf(w, "  total           %9.4f s\n", rep.TotalSec)
	rawTokens := rep.TokenCacheHits + rep.TokenCacheMisses
	fmt.Fprintf(w, "  parse cache     %9.1f%% of %.1f M tokens\n",
		100*float64(rep.TokenCacheHits)/float64(max(rawTokens, 1)), float64(rawTokens)/1e6)
	reg.Counter("fastinvert_parser_token_cache_hits_total",
		"Raw tokens the parsers resolved from their token caches.").Add(float64(rep.TokenCacheHits))
	reg.Counter("fastinvert_parser_token_cache_misses_total",
		"Raw tokens the parsers ran through stem, stop list and trie.").Add(float64(rep.TokenCacheMisses))
	fmt.Fprintf(w, "throughput: %.2f MB/s total, %.2f MB/s indexing\n",
		rep.ThroughputMBps, rep.IndexingThroughputMBps)
	fmt.Fprintf(w, "workload split: CPU %d tokens / %d terms, GPU %d tokens / %d terms\n",
		rep.CPUTokens, rep.CPUTerms, rep.GPUTokens, rep.GPUTerms)
	fmt.Fprintf(w, "output: %.2f MB postings, %.2f MB dictionary\n",
		float64(rep.PostingsBytes)/(1<<20), float64(rep.DictionaryBytes)/(1<<20))
	if *merge && *out == "" {
		return errors.New("-merge requires -out")
	}
	if *out != "" {
		fmt.Fprintf(w, "index written to %s\n", *out)
		if *merge {
			// The build's working set — dictionaries, postings stores,
			// block pools — is garbage from here on, and the collector
			// would size the merge's heap by it: the next cycle is due
			// only at twice what the build held live. Collecting now
			// marks next to nothing and keeps the merge from setting the
			// process's peak.
			runtime.GC()
			idx, err := fastinvert.OpenWith(*out, fastinvert.ReaderOptions{MergeCodec: *codecName})
			if err != nil {
				return err
			}
			t0 := time.Now()
			ms, err := idx.Merge()
			idx.Close()
			if err != nil {
				return fmt.Errorf("merge: %w", err)
			}
			took := time.Since(t0)
			fmt.Fprintf(w, "merged: %d lists from %d runs into %.2f MB (docs [%d,%d]) in %s, %d reads of %.2f MB\n",
				ms.Lists, ms.Runs, float64(ms.Bytes)/(1<<20), ms.FirstDoc, ms.LastDoc,
				took.Round(time.Millisecond), ms.ReadCalls, float64(ms.ReadBytes)/(1<<20))
			reg.Gauge("fastinvert_merge_seconds",
				"Wall time of the post-processing merge.").Set(took.Seconds())
			reg.Counter("fastinvert_merge_read_calls_total",
				"Positioned reads the merge issued against the runs' blobs.").Add(float64(ms.ReadCalls))
			reg.Counter("fastinvert_merge_read_bytes_total",
				"Bytes those reads moved.").Add(float64(ms.ReadBytes))
			if len(ms.Codecs) > 0 {
				fmt.Fprintf(w, "merged codecs:")
				names := make([]string, 0, len(ms.Codecs))
				for name := range ms.Codecs {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Fprintf(w, " %s=%d", name, ms.Codecs[name])
				}
				fmt.Fprintln(w)
			}
		}
		if *verify {
			vr, err := fastinvert.VerifyIndex(*out)
			if err != nil {
				return fmt.Errorf("index verification FAILED: %w", err)
			}
			fmt.Fprintf(w, "verified: %d runs, %d lists, %d postings, %d terms\n",
				vr.Runs, vr.Lists, vr.Postings, vr.Terms)
		}
	}
	if *traceOut != "" {
		st, err := telemetry.ValidateTraceFile(*traceOut)
		if err != nil {
			return fmt.Errorf("trace validation FAILED: %w", err)
		}
		fmt.Fprintf(w, "trace: %s (%d spans, busy+stall coverage %.0f%%)\n",
			*traceOut, st.Spans, 100*st.BusyStallCoverage)
	}
	if *metricsOut != "" {
		if err := writeMetrics(w, *metricsOut, reg); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		if *metricsOut != "-" {
			fmt.Fprintf(w, "metrics snapshot written to %s\n", *metricsOut)
		}
	}
	if *verbose {
		fmt.Fprintln(w, "per-file indexing throughput (MB/s):")
		for i, f := range rep.PerFile {
			fmt.Fprintf(w, "  %4d %-40s %8.2f\n", i, f.Name, f.ThroughputMBps)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // settle live heap so the profile reflects retained + total allocs
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		fmt.Fprintf(w, "allocation profile written to %s\n", *memProf)
	}
	return nil
}

// startProgress launches the live ticker; the returned func stops it
// and prints the final progress line.
func startProgress(enabled bool, col *telemetry.Collector) (stop func()) {
	if !enabled || col == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "\r%s", progressLine(col.Progress()))
			case <-quit:
				fmt.Fprintf(os.Stderr, "\r%s\n", progressLine(col.Progress()))
				return
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// progressLine renders one ticker line: files, docs/s, MB/s, per-stage
// utilization of the parser and indexer banks, and the ETA.
func progressLine(p telemetry.Progress) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "files %d/%d  %.0f docs/s  %.1f MB/s",
		p.FilesDone, p.FilesTotal, p.DocsPerSec, p.MBPerSec)
	stages := make([]string, 0, len(p.StageUtil))
	for st := range p.StageUtil {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		fmt.Fprintf(&sb, "  %s %3.0f%%", st, 100*p.StageUtil[st])
	}
	if p.ETA > 0 {
		fmt.Fprintf(&sb, "  ETA %s", p.ETA.Round(time.Second))
	}
	return sb.String()
}

// writeMetrics renders the registry in Prometheus text format.
func writeMetrics(w io.Writer, path string, reg *telemetry.Registry) error {
	if path == "-" {
		return reg.WritePrometheus(w)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
