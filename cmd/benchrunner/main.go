// Command benchrunner regenerates the paper's evaluation tables and
// figures (§IV) on the synthetic collections, printing paper-style
// text tables. EXPERIMENTS.md records a reference run.
//
// Usage:
//
//	benchrunner -all
//	benchrunner -table 4 -files 16 -scale 1
//	benchrunner -fig 10
//	benchrunner -ablations
//
// Performance is measured by bench/ (see BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/pprof"

	"fastinvert/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")
	var (
		all        = flag.Bool("all", false, "run every table, figure and ablation")
		table      = flag.Int("table", 0, "run one table (3, 4, 5 or 6)")
		fig        = flag.Int("fig", 0, "run one figure (10, 11 or 12)")
		ablations  = flag.Bool("ablations", false, "run the ablation suite")
		extensions = flag.Bool("extensions", false, "run the extension experiments (GPU sweep, dictionary memory)")
		files      = flag.Int("files", 16, "container files per collection")
		scale      = flag.Float64("scale", 1.0, "collection size factor")
		trials     = flag.Int("trials", 2, "trials per configuration (best kept)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	s := experiments.Scale{Files: *files, Factor: *scale}
	experiments.Trials = *trials
	w := os.Stdout

	ran := false
	runTable := func(n int) {
		ran = true
		switch n {
		case 3:
			rows, err := experiments.TableIII(s)
			check(err)
			experiments.FprintTableIII(w, rows)
		case 4:
			rows, err := experiments.TableIV(s)
			check(err)
			experiments.FprintTableIV(w, rows)
		case 5:
			r, err := experiments.TableV(s)
			check(err)
			experiments.FprintTableV(w, r)
		case 6:
			rows, err := experiments.TableVI(s)
			check(err)
			experiments.FprintTableVI(w, rows)
		default:
			log.Fatalf("no table %d (want 3, 4, 5 or 6)", n)
		}
		fmt.Fprintln(w)
	}
	runFig := func(n int) {
		ran = true
		switch n {
		case 10:
			pts, err := experiments.Fig10(s)
			check(err)
			experiments.FprintFig10(w, pts)
		case 11:
			series, shift, err := experiments.Fig11(s)
			check(err)
			experiments.FprintFig11(w, series, shift)
		case 12:
			rows, err := experiments.Fig12(s)
			check(err)
			experiments.FprintFig12(w, rows)
		default:
			log.Fatalf("no figure %d (want 10, 11 or 12)", n)
		}
		fmt.Fprintln(w)
	}
	runAblations := func() {
		ran = true
		a, err := experiments.AblationRegroup(s)
		check(err)
		experiments.FprintAblation(w, a)
		a, err = experiments.AblationStringCache(s)
		check(err)
		experiments.FprintAblation(w, a)
		a, err = experiments.AblationCoalescing()
		check(err)
		experiments.FprintAblation(w, a)
		a, err = experiments.AblationSplit(s)
		check(err)
		experiments.FprintAblation(w, a)
		rows, err := experiments.AblationTrieHeight(s)
		check(err)
		experiments.FprintTrieHeight(w, rows)
		crows, err := experiments.CompressionComparison(s)
		check(err)
		experiments.FprintCompression(w, crows)
		drows, err := experiments.AblationDecompress(s)
		check(err)
		experiments.FprintDecompress(w, drows)
		fmt.Fprintln(w)
	}
	runExtensions := func() {
		ran = true
		pts, err := experiments.ExtGPUSweep(s)
		check(err)
		experiments.FprintGPUSweep(w, pts)
		rows, err := experiments.ExtDictionaryMemory(s)
		check(err)
		experiments.FprintDictMemory(w, rows)
		prows, err := experiments.ExtPositionalCost(s)
		check(err)
		experiments.FprintPositionalCost(w, prows)
		trows, err := experiments.ExtTransferOverlap(s)
		check(err)
		experiments.FprintTransferOverlap(w, trows)
		fmt.Fprintln(w)
	}

	if *all {
		for _, n := range []int{3, 4, 5, 6} {
			runTable(n)
		}
		for _, n := range []int{10, 11, 12} {
			runFig(n)
		}
		runAblations()
		runExtensions()
	}
	if *extensions && !*all {
		runExtensions()
	}
	if *table != 0 {
		runTable(*table)
	}
	if *fig != 0 {
		runFig(*fig)
	}
	if *ablations && !*all {
		runAblations()
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
