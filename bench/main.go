// Command bench is the repository's one benchmark: four workloads over
// the build, serve and live paths, measured end to end through the
// shipped hetindex and hetserve binaries, and per layer in a separate
// traced run. See README.md beside this file.
//
//	bash bench/run.sh                      the whole set: interleaved repetitions, then the traced runs
//	bash bench/run.sh -aa                  the set twice; fails if the two disagree beyond the bounds
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                       one run of one workload; last stdout line is its JSON result
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
)

// defaultSeed is the seed of a run that names none.
const defaultSeed = 20110516

type config struct {
	root     string
	workload string
	seed     int64
	seconds  float64
	trace    int
	aa       bool
	quick    bool
}

func main() {
	var c config
	flag.StringVar(&c.root, "root", "..", "repository root (the directory holding cmd/ and BENCHMARK.json)")
	flag.StringVar(&c.workload, "workload", "", "run this workload alone and print one JSON result line")
	flag.Int64Var(&c.seed, "seed", defaultSeed, "seed of the corpora, the query sample, the Zipf draw and the schedule")
	flag.Float64Var(&c.seconds, "seconds", 15, "how long one run measures")
	flag.IntVar(&c.trace, "trace", 0, "with -workload: 1 runs the traced run and reports the per-layer metrics")
	flag.BoolVar(&c.aa, "aa", false, "run the whole set twice and compare the two")
	flag.BoolVar(&c.quick, "quick", false, "tiny sizes, for the test")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, c, os.Stdout, os.Stderr))
}

// result is one run of one workload.
type result struct {
	values    map[string]float64
	attempted int64
	failed    int64
	firstErr  error
	kernelMS  float64 // the machine gauge over this run; see speed.go
}

func run(ctx context.Context, c config, stdout, stderr io.Writer) int {
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }
	root, err := filepath.Abs(c.root)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}
	r, err := newRunner(ctx, c, root, filepath.Join(root, "bench", "out"), logf)
	if err != nil {
		logf("bench: %v", err)
		return 2
	}

	if c.workload != "" {
		if !slices.Contains(workloadNames, c.workload) {
			logf("bench: unknown workload %q (want one of %v)", c.workload, workloadNames)
			return 2
		}
		res, err := r.one(c.workload, c.trace == 1)
		if err != nil {
			logf("bench: %s: %v", c.workload, err)
			return 1
		}
		defs := endToEnd
		if c.trace == 1 {
			defs = perLayer
		}
		printJSON(stdout, res, defs)
		if res.failed > 0 {
			logf("bench: %s: %d of %d operations failed, first: %v", c.workload, res.failed, res.attempted, res.firstErr)
			return 1
		}
		return 0
	}

	a, err := r.set()
	if err != nil {
		logf("bench: %v", err)
		return 1
	}
	a.print(stdout)
	code := 0
	if a.failed() > 0 {
		code = 1
	}
	if c.aa {
		b, err := r.set()
		if err != nil {
			logf("bench: %v", err)
			return 1
		}
		b.print(stdout)
		bounds, err := readBounds(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			logf("bench: %v", err)
			return 1
		}
		if !compareAA(stdout, a, b, bounds) || b.failed() > 0 {
			code = 1
		}
	}
	return code
}

// runner runs workloads with one configuration.
type runner struct {
	ctx  context.Context
	c    config
	bins binaries
	out  string
	sz   sizes
	logf func(format string, args ...any)
}

// newRunner builds the binaries under test from root into out, which
// also receives the scratch directories and the span files.
func newRunner(ctx context.Context, c config, root, out string, logf func(string, ...any)) (*runner, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	bins, err := buildBinaries(ctx, root, filepath.Join(out, "bin"))
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, c: c, bins: bins, out: out, logf: logf, sz: stdSizes}
	if c.quick {
		r.sz = quickSizes
		r.c.seconds = quickSeconds
	}
	return r, nil
}

// one runs one workload once, end to end or traced, in a scratch
// directory of its own.
func (r *runner) one(workload string, traced bool) (*result, error) {
	work, err := os.MkdirTemp(r.out, "run-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	t := &tally{}
	g := startGauge()
	defer g.halt()
	e := &env{ctx: r.ctx, bins: r.bins, work: work, seed: r.c.seed, seconds: r.c.seconds, sz: r.sz, t: t, logf: r.logf}
	res := &result{values: map[string]float64{}}
	if traced {
		layer, err := tracedRun(e, workload, filepath.Join(r.out, "trace-"+workload+".jsonl"))
		if err != nil {
			return nil, err
		}
		layer["machine.kernel_ms"] = g.kernelMS()
		for _, d := range perLayer {
			res.values[d.Name] = layer[d.Name]
		}
	} else {
		var s samples
		switch workload {
		case "build_web":
			s, err = runBuildWeb(e)
		case "live_mixed":
			s, _, err = runLive(e)
		default:
			s, err = runServe(e, workload)
		}
		if err != nil {
			return nil, err
		}
		if b, err := json.Marshal(s); err == nil {
			r.logf("%s repetitions: %s", workload, b)
		}
		for _, d := range endToEnd {
			if len(s[d.Name]) == 0 {
				return nil, fmt.Errorf("%s measured no %s", workload, d.Name)
			}
			res.values[d.Name] = quantile(sortedCopy(s[d.Name]), reported(d))
		}
		// Timings and rates are reported in machine units: as a machine
		// that runs the gauge's kernel in unitKernelMS would have measured
		// them. See speed.go; the figures as measured go to the log.
		factor := g.kernelMS() / unitKernelMS
		for name, dir := range inMachineUnits {
			r.logf("%s: %s as measured %.6g, machine factor %.3f", workload, name, res.values[name], factor)
			res.values[name] *= math.Pow(factor, float64(-dir))
		}
	}
	for name, v := range res.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: %s is %v", workload, name, v)
		}
	}
	res.attempted, res.failed, res.firstErr = t.attempted.Load(), t.failed.Load(), t.firstErr
	res.kernelMS = g.kernelMS()
	r.logf("%s: the machine gauge's kernel took %.3f ms over this run", workload, res.kernelMS)
	return res, nil
}

// reported is the quantile of a run's repetitions that the run reports.
// Sizes and setup_s report the median. Timings and rates report their
// better quartile: what the shared host does to a repetition only ever
// slows it, for anything from one window to most of a run at a time, so
// the better quartile is what the programs do when left alone, and it
// holds until three repetitions in four are disturbed where the median
// holds until two are. README.md ("End-to-end metrics") has the passes
// this was compared on; in the one in which the host took about half of
// two live_mixed servers' time, the tail spread 22% over ten runs as the
// better quartile and 194% as the median.
func reported(d metricDef) float64 {
	if _, timed := inMachineUnits[d.Name]; !timed || d.Name == "setup_s" {
		return 0.5
	}
	if d.Better == "higher" {
		return 0.75
	}
	return 0.25
}

// printJSON writes the one-line result a single run ends with.
func printJSON(w io.Writer, res *result, defs []metricDef) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{res.values[d.Name], d.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", b)
}
