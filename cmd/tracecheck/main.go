// Command tracecheck validates the JSONL trace streams the fastinvert
// tools write — build records from hetindex -trace, request and
// seal/compaction records from hetserve -trace-requests — against the
// one trace rule: known stages, every span inside its parent, and the
// children of one parent on one lane never summing past it. Then it
// applies the stream gates it is given: the busy+stall coverage of the
// build's worker lanes, the widest query-stage coverage of one request,
// and the record count. CI runs it against seeded workloads.
//
// Usage:
//
//	tracecheck [-min-coverage 0.9] [-min-stages 5] [-min-traces 1] trace.jsonl
//
// Exit status 0 means the stream is well-formed and the gates passed;
// 1 names the first violated invariant or failed gate; 2 is a usage
// error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"fastinvert/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracecheck: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) || errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

var errUsage = errors.New("want exactly one trace file")

// run is the command: it validates the one stream named in args,
// prints its summary to w, and returns the first failed invariant or
// gate.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	minCov := fs.Float64("min-coverage", 0,
		"minimum busy+stall fraction of build wall-clock over the worker lanes (0 disables)")
	minStages := fs.Int("min-stages", 0,
		"some trace must cover at least this many distinct query stages (0 disables)")
	minTraces := fs.Int("min-traces", 1, "minimum number of traces in the stream")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return errUsage
	}
	st, err := telemetry.ValidateTraceFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "traces OK: %d traces, %d spans, %d slow, %d errors\n",
		st.Traces, st.Spans, st.Slow, st.Errors)
	fmt.Fprintln(w, "traces per endpoint:")
	for _, e := range sorted(st.Endpoints) {
		fmt.Fprintf(w, "  %-14s %8d\n", e, st.Endpoints[e])
	}
	fmt.Fprintln(w, "span time per stage (ms):")
	for _, s := range sorted(st.StageMs) {
		fmt.Fprintf(w, "  %-14s %12.3f\n", s, st.StageMs[s])
	}
	fmt.Fprintf(w, "busy+stall coverage of wall-clock: %.1f%% over %d worker lanes\n",
		100*st.BusyStallCoverage, len(st.LaneCoverage))
	fmt.Fprintf(w, "widest query-stage coverage in one trace: %d stages\n", st.MaxQueryStages)
	if st.Traces < *minTraces {
		return fmt.Errorf("%d traces below the %d-trace gate — the workload produced too little traffic",
			st.Traces, *minTraces)
	}
	if *minCov > 0 && st.BusyStallCoverage < *minCov {
		return fmt.Errorf("coverage %.1f%% below the %.0f%% gate — stage spans are missing build time",
			100*st.BusyStallCoverage, 100**minCov)
	}
	if *minStages > 0 && st.MaxQueryStages < *minStages {
		return fmt.Errorf("no trace covers %d query stages (max %d) — request spans are missing query work",
			*minStages, st.MaxQueryStages)
	}
	return nil
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
