package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// setResult is one whole set: every workload's interleaved end-to-end
// repetitions and its traced run.
type setResult struct {
	runs   map[string][]*result
	traced map[string]*result
}

// set runs the repetitions round-robin across workloads, so machine
// drift hits all alike, then one traced run of each.
func (r *runner) set() (*setResult, error) {
	s := &setResult{runs: map[string][]*result{}, traced: map[string]*result{}}
	for rep := 0; rep < setReps; rep++ {
		for _, w := range workloadNames {
			r.logf("== %s, repetition %d of %d", w, rep+1, setReps)
			res, err := r.one(w, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w, err)
			}
			s.runs[w] = append(s.runs[w], res)
		}
	}
	for _, w := range workloadNames {
		r.logf("== %s, traced run", w)
		res, err := r.one(w, true)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w, err)
		}
		s.traced[w] = res
	}
	return s, nil
}

func (s *setResult) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range s.runs[workload] {
		v = append(v, r.values[metric])
	}
	return v
}

func (s *setResult) failed() int64 {
	var n int64
	for _, w := range workloadNames {
		for _, r := range s.runs[w] {
			n += r.failed
		}
		n += s.traced[w].failed
	}
	return n
}

// print lists every metric by name with its unit, sample count, median
// and inter-quartile range over the repetitions.
func (s *setResult) print(w io.Writer) {
	for _, wl := range workloadNames {
		var attempted, failed int64
		for _, r := range s.runs[wl] {
			attempted += r.attempted
			failed += r.failed
		}
		fmt.Fprintf(w, "\n%s  end to end, timings and rates in machine units (attempted %d, failed %d, failed_share %g)\n", wl, attempted, failed, float64(failed)/float64(attempted))
		fmt.Fprintf(w, "  %-30s %-6s %3s %14s %12s  %s\n", "metric", "unit", "n", "median", "iqr", "on this workload")
		for _, d := range endToEnd {
			v := s.values(wl, d.Name)
			fmt.Fprintf(w, "  %-30s %-6s %3d %14.5g %12.3g  %s\n", d.Name, d.Unit, len(v), median(v), iqr(v), alias[wl][d.Name])
		}
		fmt.Fprintf(w, "%s  per layer (traced run, n=1; layers the workload does not run are left out)\n", wl)
		for _, d := range perLayer {
			if v := s.traced[wl].values[d.Name]; v != 0 {
				fmt.Fprintf(w, "  %-42s %-6s %14.6g\n", d.Name, d.Unit, v)
			}
		}
	}
}

// readBounds takes each end-to-end metric's bound from BENCHMARK.json.
func readBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range f.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// gauge is the median machine-gauge reading over a set's end-to-end runs.
func (s *setResult) gauge() float64 {
	var v []float64
	for _, w := range workloadNames {
		for _, r := range s.runs[w] {
			v = append(v, r.kernelMS)
		}
	}
	return median(v)
}

// compareAA prints both sets' medians for every end-to-end metric with
// their signed relative difference and the bound, and says whether the
// two sets agree within every bound, in either direction, and the exact
// counts are equal.
func compareAA(w io.Writer, a, b *setResult, bounds map[string]float64) bool {
	ok := true
	ga, gb := a.gauge(), b.gauge()
	fmt.Fprintf(w, "\nA/A: the same code measured twice (machine gauge %.3f ms, then %.3f ms)\n", ga, gb)
	if drift := math.Abs(gb-ga) / ga; drift > 0.1 {
		fmt.Fprintf(w, "  the machine changed by %.0f%% between the sets; the correction takes out about half of that, so a smaller difference below is unresolved\n", 100*drift)
	}
	fmt.Fprintf(w, "  %-12s %-30s %14s %14s %10s %7s\n", "workload", "metric", "first", "second", "difference", "bound")
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			ma, mb := median(a.values(wl, d.Name)), median(b.values(wl, d.Name))
			diff := (mb - ma) / ma
			verdict := ""
			if math.Abs(diff) > bounds[d.Name] {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Fprintf(w, "  %-12s %-30s %14.5g %14.5g %+9.1f%% %6.0f%%%s\n", wl, d.Name, ma, mb, 100*diff, 100*bounds[d.Name], verdict)
		}
		for _, name := range exactCounts {
			va, vb := a.traced[wl].values[name], b.traced[wl].values[name]
			if va != vb || math.IsNaN(va) {
				fmt.Fprintf(w, "  %-12s %-30s %14.9g %14.9g  NOT EQUAL\n", wl, name, va, vb)
				ok = false
			}
		}
	}
	if ok {
		fmt.Fprintf(w, "A/A: every end-to-end metric within its bound, exact counts equal\n")
	}
	return ok
}
