package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"fastinvert/internal/telemetry"
)

// runTraced builds files test files with a Collector writing to a
// buffer, in the given executor, and returns the report, the
// registry, the trace stream and the build error.
func runTraced(t *testing.T, mode string, files int, hooks *Hooks) (*Report, *telemetry.Registry, []byte, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := telemetry.NewTraceWriter(&buf)
	reg := telemetry.NewRegistry()
	cfg := testConfig(2, 1, 2)
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	cfg.Observer = telemetry.NewCollector(reg, tw)
	cfg.Hooks = hooks
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rep *Report
	if mode == "serial" {
		rep, err = eng.Build(testSource(files))
	} else {
		rep, err = eng.BuildConcurrent(testSource(files))
	}
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return rep, reg, buf.Bytes(), err
}

// TestPipelineTelemetry runs both executors with a Collector attached
// and checks the resulting build record end-to-end: it validates (every
// span inside the build, worker lanes serial), busy+stall accounts for
// ≥90% of wall-clock, per-stage span payloads sum to the build report's
// totals, and the per-collection token totals reproduce the CPU/GPU
// split.
func TestPipelineTelemetry(t *testing.T) {
	const files = 4
	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			rep, reg, trace, err := runTraced(t, mode, files, nil)
			if err != nil {
				t.Fatal(err)
			}
			st, err := telemetry.ValidateTraces(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			var rec telemetry.TraceRecord
			if err := json.Unmarshal(trace, &rec); err != nil {
				t.Fatal(err)
			}
			if st.Traces != 1 || rec.Endpoint != "build" || rec.DurMs <= 0 {
				t.Fatalf("want one build record with a wall time, got %d traces, endpoint %q, %vms",
					st.Traces, rec.Endpoint, rec.DurMs)
			}
			// The acceptance gate: derived stalls close every worker's
			// lane, so busy+stall sums to wall-clock within 10%.
			if st.BusyStallCoverage < 0.9 {
				t.Errorf("busy+stall coverage = %.1f%%, want >= 90%%", 100*st.BusyStallCoverage)
			}
			for lane, cov := range st.LaneCoverage {
				if cov < 0.99 {
					t.Errorf("lane %s busy+stall covers %.1f%% of its window", lane, 100*cov)
				}
			}

			// Sum span payloads against the build report.
			var parseTokens, parseDocs, indexTokens int64
			var sampled telemetry.Span
			var flushes, reads int
			for _, sp := range rec.Spans {
				switch sp.Stage {
				case telemetry.StageSampling:
					sampled = sp
				case telemetry.StageParse:
					parseTokens += sp.Tokens
					parseDocs += sp.Items
				case telemetry.StageIndex:
					indexTokens += sp.Tokens
				case telemetry.StageFlush:
					flushes++
				case telemetry.StageRead:
					reads++
				}
			}
			var collCPU, collGPU float64
			coll, _ := rec.Attrs["collection_tokens"].([]any)
			for _, c := range coll {
				c := c.(map[string]any)
				if c["kind"] == "gpu" {
					collGPU += c["value"].(float64)
				} else {
					collCPU += c["value"].(float64)
				}
			}
			if parseTokens != rep.Tokens || parseDocs != rep.Docs {
				t.Errorf("parse spans sum to %d tokens / %d docs, report says %d / %d",
					parseTokens, parseDocs, rep.Tokens, rep.Docs)
			}
			// The sampling span reports the sample it took, and the
			// report and registry agree with it.
			if sampled.Items < int64(files) || sampled.Items >= rep.Docs || sampled.Tokens <= 0 ||
				sampled.Bytes <= 0 || sampled.Bytes >= rep.UncompressedBytes {
				t.Errorf("sampling span carries %d docs / %d tokens / %d bytes of a %d-doc, %d-byte build",
					sampled.Items, sampled.Tokens, sampled.Bytes, rep.Docs, rep.UncompressedBytes)
			}
			if sampled.Items != rep.SampledDocs || sampled.Bytes != rep.SampledBytes {
				t.Errorf("sampling span %d docs / %d bytes, report says %d / %d",
					sampled.Items, sampled.Bytes, rep.SampledDocs, rep.SampledBytes)
			}
			if v := reg.Counter("fastinvert_build_sampled_docs_total", "").Value(); int64(v) != rep.SampledDocs {
				t.Errorf("registry sampled docs = %v, report %d", v, rep.SampledDocs)
			}
			if indexTokens != rep.Tokens {
				t.Errorf("index spans sum to %d tokens, report says %d", indexTokens, rep.Tokens)
			}
			if flushes != files || reads != files {
				t.Errorf("flush/read spans = %d/%d, want %d each", flushes, reads, files)
			}
			if int64(collCPU) != rep.CPUTokens || int64(collGPU) != rep.GPUTokens {
				t.Errorf("collection_tokens split %v/%v, report %d/%d",
					collCPU, collGPU, rep.CPUTokens, rep.GPUTokens)
			}

			// Registry view must agree with the report too.
			if v := reg.Counter("fastinvert_build_docs_total", "").Value(); int64(v) != rep.Docs {
				t.Errorf("registry docs = %v, report %d", v, rep.Docs)
			}
			if v := reg.Counter("fastinvert_build_tokens_total", "").Value(); int64(v) != rep.Tokens {
				t.Errorf("registry tokens = %v, report %d", v, rep.Tokens)
			}
		})
	}
}

// TestPipelineTelemetryFailedBuild: a build that fails still writes
// its record, valid and carrying the error.
func TestPipelineTelemetryFailedBuild(t *testing.T) {
	boom := errors.New("injected parse failure")
	for _, mode := range []string{"serial", "concurrent"} {
		t.Run(mode, func(t *testing.T) {
			_, _, trace, err := runTraced(t, mode, 4, &Hooks{AfterParse: func(f int) error {
				if f == 2 {
					return boom
				}
				return nil
			}})
			if !errors.Is(err, boom) {
				t.Fatalf("build error = %v, want %v", err, boom)
			}
			st, err := telemetry.ValidateTraces(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("trace invalid: %v", err)
			}
			var rec telemetry.TraceRecord
			if err := json.Unmarshal(trace, &rec); err != nil {
				t.Fatal(err)
			}
			if st.Traces != 1 || st.Errors != 1 || !strings.Contains(rec.Err, boom.Error()) {
				t.Errorf("want one build record carrying %q, got %d traces, err %q", boom, st.Traces, rec.Err)
			}
		})
	}
}

// TestObserverOffByDefault: a nil Observer must leave the engine's
// observation path completely inert (no collTokens allocation).
func TestObserverOffByDefault(t *testing.T) {
	src := testSource(2)
	cfg := testConfig(2, 1, 0)
	cfg.OutDir = filepath.Join(t.TempDir(), "idx")
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Build(src); err != nil {
		t.Fatal(err)
	}
	if eng.collTokens != nil {
		t.Error("collTokens allocated without an observer")
	}
}
