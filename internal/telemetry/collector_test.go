package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}

// TestCollectorDerivesStalls feeds hand-built spans through the
// Collector and checks that it derives the idle gaps: a stall span per
// gap in each parse/index worker lane plus a tail stall at BuildEnd,
// so that busy+stall tiles the whole build window.
func TestCollectorDerivesStalls(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	reg := NewRegistry()
	c := NewCollector(reg, tw)

	c.BuildStart(2, map[string]any{"files": 2})
	base := time.Now() // ≈ the collector's epoch, within microseconds
	ms := time.Millisecond
	c.StageSpan(StageRead, -1, 0, base, 2*ms, 1<<20, 0, 0)
	c.StageSpan(StageParse, 0, 0, base.Add(10*ms), 5*ms, 4096, 100, 4)
	c.StageSpan(StageParse, 0, 1, base.Add(25*ms), 5*ms, 4096, 150, 6)
	c.StageSpan(StageIndex, 0, 0, base.Add(16*ms), 4*ms, 0, 100, 0)
	c.StageSpan(StageFlush, -1, 0, base.Add(30*ms), 2*ms, 0, 0, 0)
	c.StageSpan(StageFlush, -1, 1, base.Add(33*ms), 2*ms, 0, 0, 0)
	c.Sample("parsed_queue_depth", 0, 2)
	c.Total("collection_tokens", map[string]string{"coll": "a", "kind": "cpu"}, 100)
	c.Total("collection_tokens", map[string]string{"coll": "b", "kind": "cpu"}, 150)

	p := c.Progress()
	if p.FilesDone != 2 || p.FilesTotal != 2 {
		t.Errorf("progress files = %d/%d, want 2/2", p.FilesDone, p.FilesTotal)
	}
	if p.Docs != 10 || p.Tokens != 250 {
		t.Errorf("progress docs/tokens = %d/%d, want 10/250", p.Docs, p.Tokens)
	}
	if p.ReadBytes != 1<<20 || p.ParsedBytes != 8192 {
		t.Errorf("progress bytes = %d/%d, want %d/8192", p.ReadBytes, p.ParsedBytes, 1<<20)
	}

	// Let real wall-clock pass the last span end so BuildEnd has a tail
	// gap to close for each worker lane.
	time.Sleep(60 * ms)
	c.BuildEnd(map[string]any{"docs": 10})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := ValidateTraces(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	if st.Traces != 1 || rec.Endpoint != "build" || rec.Spans[0].Stage != StageBuild || rec.Err != "" {
		t.Fatalf("want one clean build record, got %d traces, endpoint %q, root %q, err %q",
			st.Traces, rec.Endpoint, rec.Spans[0].Stage, rec.Err)
	}
	// BuildStart and BuildEnd attrs and the totals are the record's
	// attrs; samples stay out of the trace.
	if rec.Attrs["files"] != float64(2) || rec.Attrs["docs"] != float64(10) {
		t.Errorf("attrs = %v, want files 2 and docs 10", rec.Attrs)
	}
	if coll, _ := rec.Attrs["collection_tokens"].([]any); len(coll) != 2 {
		t.Errorf("collection_tokens attr = %v, want two collections", rec.Attrs["collection_tokens"])
	}
	if strings.Contains(buf.String(), "parsed_queue_depth") {
		t.Error("a pipeline sample reached the trace")
	}
	// The spans above were fed with microsecond-level skew between the
	// collector's epoch and base; stage sums are exact span durations.
	approx(t, "parse busy", st.StageMs[StageParse], 10, 1e-6)
	approx(t, "index busy", st.StageMs[StageIndex], 4, 1e-6)
	stall := map[string]float64{}
	for _, sp := range rec.Spans {
		if sp.Stage == StageStall {
			stage, _, _ := strings.Cut(sp.Lane, "/")
			stall[stage] += sp.DurMs
		}
	}
	// parse/0 gaps: [0,10ms) before the first span, (15ms,25ms) between
	// spans, plus the tail from 30ms to the wall clock.
	approx(t, "parse stall", stall[StageParse], rec.DurMs-10, 2)
	approx(t, "index stall", stall[StageIndex], rec.DurMs-4, 2)
	// Busy+stall tiles each lane → coverage ≈ 1.
	if st.BusyStallCoverage < 0.95 || st.BusyStallCoverage > 1.05 {
		t.Errorf("busy+stall coverage = %v, want ~1.0", st.BusyStallCoverage)
	}

	// Registry side: totals and the aggregated (coll label dropped)
	// collection_tokens counter.
	approx(t, "docs_total", reg.Counter("fastinvert_build_docs_total", "").Value(), 10, 0)
	approx(t, "tokens_total", reg.Counter("fastinvert_build_tokens_total", "").Value(), 250, 0)
	approx(t, "collection_tokens{kind=cpu}",
		reg.Counter("fastinvert_build_collection_tokens", "", L("kind", "cpu")).Value(), 250, 0)
	approx(t, "stage_seconds{parse}",
		reg.Counter("fastinvert_build_stage_seconds_total", "", L("stage", "parse")).Value(), 0.010, 1e-9)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fastinvert_build_stage_seconds_total{stage=\"parse\"}",
		"fastinvert_build_stage_seconds_total{stage=\"stall_parse\"}",
		"fastinvert_build_span_seconds_bucket",
		"fastinvert_build_wall_seconds",
		"fastinvert_build_parsed_queue_depth{worker=\"0\"} 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestCollectorNilSinks: a collector with neither registry nor trace
// writer must still feed Progress without panicking — the shape
// hetindex -progress arms.
func TestCollectorNilSinks(t *testing.T) {
	c := NewCollector(nil, nil)
	c.BuildStart(1, nil)
	base := time.Now()
	c.StageSpan(StageParse, 0, 0, base, time.Millisecond, 10, 20, 1)
	c.Sample("x", 0, 1)
	c.Total("collection_tokens", map[string]string{"kind": "gpu"}, 20)
	c.BuildEnd(nil)
	p := c.Progress()
	if p.Tokens != 20 || p.Docs != 1 || p.ParsedBytes != 10 || p.FilesTotal != 1 {
		t.Errorf("progress = %+v, want 20 tokens, 1 doc, 10 bytes of 1 file", p)
	}
	if u := p.StageUtil[StageParse]; u <= 0 {
		t.Errorf("parse utilization = %v, want > 0", u)
	}
}
