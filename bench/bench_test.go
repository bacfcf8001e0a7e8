package main

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"fastinvert/bench/probe"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog: BENCHMARK.json names exactly the
// workloads and metrics the program reports, with the same units.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloadNames))
	}
	for i, w := range f.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: BENCHMARK.json %v, program %v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range f.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %v, program %v", i, m, d)
		}
	}
}

// TestQuick runs all four workloads and their traced runs at tiny sizes
// and asserts only what repeats: every named metric is there and
// finite, no operation failed, and the span files hold well-formed
// trees. It asserts no timing.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs all four workloads")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	r, err := newRunner(context.Background(), config{seed: defaultSeed, quick: true}, root, out, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	f := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := r.one(w, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if res.attempted < 1 || res.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w, traced, res.attempted, res.failed, res.firstErr)
			}
			names := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					names[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					names[m.Name] = m.Unit
				}
			}
			for name, unit := range names {
				v, ok := res.values[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || unit == "" {
					t.Errorf("%s traced=%v: metric %s (unit %q) = %v, present %v", w, traced, name, unit, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above 0", w, name, v)
				}
			}
		}
		spans := readSpans(t, filepath.Join(out, "trace-"+w+".jsonl"))
		if len(spans) < 2 {
			t.Errorf("%s: span file holds %d spans", w, len(spans))
		}
		if err := probe.Validate(spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

func readSpans(t *testing.T, path string) []probe.Span {
	t.Helper()
	fh, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	var spans []probe.Span
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		var s probe.Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	return spans
}
