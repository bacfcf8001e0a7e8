// Command hetverify runs the differential correctness and fault-
// injection harness standalone: randomized corpora are built through
// the concurrent pipelined executor and through every trusted baseline
// (reference serial indexer, SPIMI, sort-based, single-pass MR, Ivory
// MR), and the indexes are asserted term-for-term identical. With
// -chaos, every fault kind is additionally injected per seed and the
// build must end in a verified-correct index or a typed error with no
// leaked goroutines.
//
// With -live, each seed instead drives the interleaved live-index
// harness: a seeded schedule of inserts, deletes, queries, seals and
// compactions against the LSM-style segment manager, diffed
// term-for-term against a serial from-scratch rebuild of the surviving
// documents at every seal and compaction boundary, at the end of the
// schedule, and again after a close/reopen cycle.
//
// Usage:
//
//	hetverify -seeds 10 -start 1000 [-positional] [-chaos] [-live] [-v]
//
// Any failure prints its seed — rerun with -start <seed> -seeds 1 -v
// to reproduce deterministically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"fastinvert/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hetverify: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the command: it parses args, sweeps the selected harness over
// the seeds, logs every failure as it happens, and prints the summary
// line to w or returns the failure count as an error.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hetverify", flag.ExitOnError)
	var (
		seeds      = fs.Int("seeds", 10, "number of random corpus seeds")
		start      = fs.Int64("start", 1000, "first seed")
		positional = fs.Bool("positional", false, "build positional postings (pins positions against the reference)")
		chaos      = fs.Bool("chaos", false, "also run the fault-injection matrix per seed")
		live       = fs.Bool("live", false, "run the interleaved live-index differential harness instead of the batch one")
		liveOps    = fs.Int("live-ops", 400, "operations per live schedule")
		verbose    = fs.Bool("v", false, "print every comparison, not just failures")
	)
	fs.Parse(args)

	if *live {
		return runLive(w, *seeds, *start, *liveOps, *positional, *verbose)
	}

	ctx := context.Background()
	failures := 0
	t0 := time.Now()
	for i := 0; i < *seeds; i++ {
		seed := *start + int64(i)
		cfg := verify.Config{Seed: seed, Positional: *positional}
		res, err := verify.Run(ctx, cfg)
		if err != nil {
			log.Printf("seed %d: harness error: %v", seed, err)
			failures++
			continue
		}
		if !res.OK() {
			log.Printf("FAIL %s", res.Summary())
			failures++
		} else if *verbose {
			fmt.Fprintln(w, res.Summary())
		}

		if *chaos {
			for _, c := range chaosMatrix(seed) {
				cres, err := verify.RunChaos(ctx, cfg, c)
				if err != nil {
					log.Printf("seed %d: chaos harness error: %v", seed, err)
					failures++
					continue
				}
				if !cres.OK() {
					log.Printf("FAIL seed %d chaos %s", seed, cres)
					failures++
				} else if *verbose {
					fmt.Fprintf(w, "seed %d chaos %s\n", seed, cres)
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d failure(s) across %d seeds in %s", failures, *seeds, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "OK: %d seeds (chaos=%v, positional=%v) in %s\n",
		*seeds, *chaos, *positional, time.Since(t0).Round(time.Millisecond))
	return nil
}

// runLive sweeps the interleaved live-index harness across seeds.
func runLive(w io.Writer, seeds int, start int64, ops int, positional, verbose bool) error {
	ctx := context.Background()
	failures := 0
	t0 := time.Now()
	for i := 0; i < seeds; i++ {
		seed := start + int64(i)
		res, err := verify.RunLive(ctx, verify.LiveConfig{
			Seed:       seed,
			Ops:        ops,
			Positional: positional,
		})
		if err != nil {
			log.Printf("seed %d: live harness error: %v", seed, err)
			failures++
			continue
		}
		if !res.OK() {
			log.Printf("FAIL %s", res.Summary())
			failures++
		} else if verbose {
			fmt.Fprintln(w, res.Summary())
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d failure(s) across %d live seeds in %s", failures, seeds, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "OK: %d live seeds (%d ops each, positional=%v) in %s\n",
		seeds, ops, positional, time.Since(t0).Round(time.Millisecond))
	return nil
}

// chaosMatrix is the per-seed fault set: every kind, the stage faults
// at two file indexes.
func chaosMatrix(seed int64) []verify.ChaosConfig {
	return []verify.ChaosConfig{
		{Fault: verify.FaultNone},
		{Fault: verify.FaultSlowRead, Delay: time.Millisecond},
		{Fault: verify.FaultReadError, At: 0},
		{Fault: verify.FaultReadError, At: 1},
		{Fault: verify.FaultParseError, At: 1},
		{Fault: verify.FaultIndexError, At: 1},
		{Fault: verify.FaultWriteError, At: 1},
		{Fault: verify.FaultCancel, At: 1},
		{Fault: verify.FaultTruncateStored, At: 1},
		{Fault: verify.FaultTruncateRun},
		{Fault: verify.FaultBitFlipRun, Seed: seed},
		{Fault: verify.FaultTruncateDict},
		{Fault: verify.FaultGarbageDocmap},
		{Fault: verify.FaultTruncateMerged},
		{Fault: verify.FaultBitFlipMerged, Seed: seed},
	}
}
