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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/pprof"

	"fastinvert/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchrunner: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// errUsage reports a command line that asks for nothing; run has
// already printed the usage.
var errUsage = errors.New("nothing to run")

// run is the command: it parses args and prints the tables and figures
// they ask for to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchrunner", flag.ExitOnError)
	var (
		all        = fs.Bool("all", false, "run every table, figure and ablation")
		table      = fs.Int("table", 0, "run one table (3, 4, 5 or 6)")
		fig        = fs.Int("fig", 0, "run one figure (10, 11 or 12)")
		ablations  = fs.Bool("ablations", false, "run the ablation suite")
		extensions = fs.Bool("extensions", false, "run the extension experiments (GPU sweep, dictionary memory)")
		files      = fs.Int("files", 16, "container files per collection")
		scale      = fs.Float64("scale", 1.0, "collection size factor")
		trials     = fs.Int("trials", 2, "trials per configuration (best kept)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	)
	fs.Parse(args)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	s := experiments.Scale{Files: *files, Factor: *scale}
	experiments.Trials = *trials

	// Each group is followed by one blank line.
	var groups [][]section
	if *all {
		for _, n := range []int{3, 4, 5, 6} {
			groups = append(groups, tables[n:n+1])
		}
		for _, n := range []int{10, 11, 12} {
			groups = append(groups, figs[n:n+1])
		}
		groups = append(groups, ablationSuite, extensionSuite)
	}
	if *extensions && !*all {
		groups = append(groups, extensionSuite)
	}
	if *table != 0 {
		if *table < 0 || *table >= len(tables) || tables[*table] == nil {
			return fmt.Errorf("no table %d (want 3, 4, 5 or 6)", *table)
		}
		groups = append(groups, tables[*table:*table+1])
	}
	if *fig != 0 {
		if *fig < 0 || *fig >= len(figs) || figs[*fig] == nil {
			return fmt.Errorf("no figure %d (want 10, 11 or 12)", *fig)
		}
		groups = append(groups, figs[*fig:*fig+1])
	}
	if *ablations && !*all {
		groups = append(groups, ablationSuite)
	}
	if len(groups) == 0 {
		fs.Usage()
		return errUsage
	}
	for _, group := range groups {
		for _, run := range group {
			if err := run(w, s); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

// section runs one experiment and prints its table.
type section func(w io.Writer, s experiments.Scale) error

// of pairs an experiment with its printer.
func of[T any](get func(experiments.Scale) (T, error), print func(io.Writer, T)) section {
	return func(w io.Writer, s experiments.Scale) error {
		v, err := get(s)
		if err != nil {
			return err
		}
		print(w, v)
		return nil
	}
}

var (
	tables = []section{
		3: of(experiments.TableIII, experiments.FprintTableIII),
		4: of(experiments.TableIV, experiments.FprintTableIV),
		5: of(experiments.TableV, experiments.FprintTableV),
		6: of(experiments.TableVI, experiments.FprintTableVI),
	}
	figs = []section{
		10: of(experiments.Fig10, experiments.FprintFig10),
		11: func(w io.Writer, s experiments.Scale) error {
			series, shift, err := experiments.Fig11(s)
			if err != nil {
				return err
			}
			experiments.FprintFig11(w, series, shift)
			return nil
		},
		12: of(experiments.Fig12, experiments.FprintFig12),
	}
	ablationSuite = []section{
		of(experiments.AblationRegroup, experiments.FprintAblation),
		of(experiments.AblationStringCache, experiments.FprintAblation),
		of(func(experiments.Scale) (experiments.AblationResult, error) { return experiments.AblationCoalescing() },
			experiments.FprintAblation),
		of(experiments.AblationSplit, experiments.FprintAblation),
		of(experiments.AblationTrieHeight, experiments.FprintTrieHeight),
		of(experiments.CompressionComparison, experiments.FprintCompression),
		of(experiments.AblationDecompress, experiments.FprintDecompress),
	}
	extensionSuite = []section{
		of(experiments.ExtGPUSweep, experiments.FprintGPUSweep),
		of(experiments.ExtDictionaryMemory, experiments.FprintDictMemory),
		of(experiments.ExtPositionalCost, experiments.FprintPositionalCost),
		of(experiments.ExtTransferOverlap, experiments.FprintTransferOverlap),
	}
)
