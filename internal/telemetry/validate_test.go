package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// buildRecord renders a build record by hand: a root of wallMs and the
// given spans as its children.
func buildRecord(t testing.TB, wallMs float64, spans ...Span) []byte {
	t.Helper()
	rec := TraceRecord{Ev: "reqtrace", ID: "b-1", Endpoint: "build", DurMs: wallMs,
		Attrs: map[string]any{"files": 2, "parsers": 2},
		Spans: append([]Span{{Stage: StageBuild, Par: -1, DurMs: wallMs}}, spans...)}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestTraceRoundTrip(t *testing.T) {
	spans := []Span{
		{Stage: StageSampling, Lane: StageSampling, StartMs: 0, DurMs: 100},
		{Stage: StageRead, Lane: StageRead, StartMs: 100, DurMs: 200, Bytes: 1024, Note: "file 0"},
		{Stage: StageStall, Lane: "parse/0", StartMs: 0, DurMs: 300},
		{Stage: StageParse, Lane: "parse/0", StartMs: 300, DurMs: 500, Bytes: 4096, Tokens: 900, Items: 10},
		{Stage: StageStall, Lane: "parse/0", StartMs: 800, DurMs: 1200},
		{Stage: StageIndex, Lane: "index/0", StartMs: 800, DurMs: 700, Tokens: 900},
		{Stage: StageStall, Lane: "index/0", StartMs: 0, DurMs: 800},
		{Stage: StageStall, Lane: "index/0", StartMs: 1500, DurMs: 500},
		{Stage: StageFlush, Lane: StageFlush, StartMs: 1500, DurMs: 300},
	}
	st, err := ValidateTraces(bytes.NewReader(buildRecord(t, 2000, spans...)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 1 || st.Endpoints["build"] != 1 {
		t.Errorf("traces = %d, endpoints %v, want one build", st.Traces, st.Endpoints)
	}
	if st.Spans != len(spans)+1 {
		t.Errorf("spans = %d, want %d", st.Spans, len(spans)+1)
	}
	if got := st.StageMs[StageBuild]; got != 2000 {
		t.Errorf("build root = %vms, want 2000", got)
	}
	if got := st.StageMs[StageParse]; got != 500 {
		t.Errorf("parse = %vms, want 500", got)
	}
	if got := st.StageMs[StageStall]; got != 2800 {
		t.Errorf("stall = %vms, want 2800", got)
	}
	// parse/0: busy 500 + stalls 300+1200 tile the window [0, 2000].
	// Lanes without a stall (read, flush, sampling) are not worker lanes.
	if cov := st.LaneCoverage["parse/0"]; cov < 0.999 || cov > 1.001 {
		t.Errorf("parse/0 coverage = %v, want 1.0", cov)
	}
	if len(st.LaneCoverage) != 2 {
		t.Errorf("coverage lanes = %v, want parse/0 and index/0", st.LaneCoverage)
	}
	// Both lanes tile [0, 2000] against a 2000ms root → full coverage.
	if st.BusyStallCoverage < 0.999 {
		t.Errorf("busy+stall coverage = %v, want ~1.0", st.BusyStallCoverage)
	}
}

type rejection struct{ name, trace, want string }

// expectRejections runs each case as a subtest: ValidateTraces must
// refuse it with an error naming the broken invariant.
func expectRejections(t *testing.T, cases []rejection) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateTraces(strings.NewReader(tc.trace))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

// TestValidateTraceRejections: the one rule, violated one way at a
// time; each error names its invariant.
func TestValidateTraceRejections(t *testing.T) {
	expectRejections(t, []rejection{
		{"garbage line", "not json\n", "record 1: bad JSON"},
		{"empty stream", "", "stream is empty"},
		{"bad root", `{"ev":"reqtrace","id":"a","endpoint":"search","dur_ms":1,"spans":[{"stage":"dict","par":-1}]}`, "root"},
		{"unknown stage", reqRecord(`{"stage":"warp","par":0}`), `unknown stage "warp"`},
		{"negative time", string(buildRecord(t, 1000, Span{Stage: StageParse, Lane: "parse/0", StartMs: -1, DurMs: 1})), "negative time"},
		// Two spans of one indexer overlapping by far more than clock
		// jitter: the lane sums past the build.
		{"overlap", string(buildRecord(t, 1500,
			Span{Stage: StageIndex, Lane: "index/3", StartMs: 0, DurMs: 1000},
			Span{Stage: StageIndex, Lane: "index/3", StartMs: 500, DurMs: 1000})), `on lane "index/3" sum 2000.000ms past`},
	})
}

// reqRecord renders a search record whose 10ms handler root parents
// the given spans.
func reqRecord(spans ...string) string {
	const handler = `{"stage":"handler","par":-1,"dur_ms":10}`
	return `{"ev":"reqtrace","id":"a","endpoint":"search","dur_ms":10,"spans":[` +
		strings.Join(append([]string{handler}, spans...), ",") + "]}\n"
}

// TestValidateRequestTracesRejects: the invariants of a request record's
// shape and span tree, each broken alone.
func TestValidateRequestTracesRejects(t *testing.T) {
	expectRejections(t, []rejection{
		{"bad ev", `{"ev":"span","id":"a","endpoint":"search","dur_ms":1,"spans":[{"stage":"handler","par":-1}]}`, `ev "span"`},
		{"empty id", `{"ev":"reqtrace","id":"","endpoint":"search","dur_ms":1,"spans":[{"stage":"handler","par":-1}]}`, "empty trace id"},
		{"no spans", `{"ev":"reqtrace","id":"a","endpoint":"search","dur_ms":1,"spans":[]}`, "no spans"},
		{"fwd parent", reqRecord(`{"stage":"dict","par":2}`, `{"stage":"cache","par":0}`), "parent 2 out of range"},
		{"outside trace", `{"ev":"reqtrace","id":"a","endpoint":"search","dur_ms":1,"spans":[{"stage":"handler","par":-1,"dur_ms":1},{"stage":"dict","par":0,"start_ms":0.5,"dur_ms":2}]}`, "not inside its parent"},
		// A child that starts before its parent, though it ends inside it
		// and inside the trace.
		{"outside parent", reqRecord(`{"stage":"cache","par":0,"start_ms":5,"dur_ms":2}`, `{"stage":"pread","par":1,"start_ms":4,"dur_ms":1}`), "span 2 (pread) [4.000, 5.000]ms is not inside its parent [5.000, 7.000]ms"},
		{"child sum", reqRecord(`{"stage":"dict","par":0,"dur_ms":6}`, `{"stage":"cache","par":0,"start_ms":4,"dur_ms":6}`), `children of span 0 (handler) on lane "" sum`},
	})
}

// TestValidateTraceOverlapTolerance: sub-millisecond overlap between a
// worker lane's consecutive spans is clock jitter, not a violation of
// the lane rule.
func TestValidateTraceOverlapTolerance(t *testing.T) {
	rec := buildRecord(t, 1499.5,
		Span{Stage: StageIndex, Lane: "index/0", StartMs: 0, DurMs: 1000},
		Span{Stage: StageIndex, Lane: "index/0", StartMs: 999.5, DurMs: 500})
	if _, err := ValidateTraces(bytes.NewReader(rec)); err != nil {
		t.Errorf("0.5ms overlap should be tolerated, got %v", err)
	}
}

// TestValidateTracesHugeRecord: one build is one line, whatever its
// size; the reader has no line cap.
func TestValidateTracesHugeRecord(t *testing.T) {
	const lanes, perLane = 64, 2200
	spans := make([]Span, 0, lanes*perLane)
	for l := 0; l < lanes; l++ {
		lane := "parse/" + strconv.Itoa(l)
		for i := 0; i < perLane; i++ {
			spans = append(spans, Span{Stage: StageParse, Lane: lane, StartMs: float64(i), DurMs: 0.5,
				Bytes: 123456, Tokens: 23456, Items: 12, Note: "file " + strconv.Itoa(l*perLane+i)})
		}
	}
	rec := buildRecord(t, perLane, spans...)
	if len(rec) <= 16<<20 {
		t.Fatalf("record is %d bytes, want more than 16 MiB", len(rec))
	}
	st, err := ValidateTraces(bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	if st.Spans != len(spans)+1 {
		t.Errorf("spans = %d, want %d", st.Spans, len(spans)+1)
	}
}

// FuzzValidateTraces: the validator reads outside input (tracecheck's
// argument). It must never panic, and what it accepts it counts: the
// span total is the sum over the stream's records.
func FuzzValidateTraces(f *testing.F) {
	f.Add(buildRecord(f, 20,
		Span{Stage: StageStall, Lane: "parse/0", StartMs: 0, DurMs: 5},
		Span{Stage: StageParse, Lane: "parse/0", StartMs: 5, DurMs: 15, Tokens: 9, Items: 1, Note: "file 0"}))
	f.Add([]byte(`{"ev":"reqtrace","id":"a","endpoint":"search","dur_ms":10,"spans":[` +
		`{"stage":"handler","par":-1,"dur_ms":10},{"stage":"cache","par":0,"start_ms":1,"dur_ms":5,"note":"miss"},` +
		`{"stage":"pread","par":1,"start_ms":2,"dur_ms":2,"bytes":4096}]}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ValidateTraces(bytes.NewReader(data))
		if err != nil {
			return
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		spans, records := 0, 0
		for {
			var rec TraceRecord
			if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				t.Fatalf("accepted stream fails to decode: %v", err)
			}
			spans += len(rec.Spans)
			records++
		}
		if st.Spans != spans || st.Traces != records {
			t.Fatalf("stats count %d spans in %d traces, the stream holds %d in %d",
				st.Spans, st.Traces, spans, records)
		}
	})
}
