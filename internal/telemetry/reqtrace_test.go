package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRequestTraceSpanTree(t *testing.T) {
	tr := NewRequestTrace("search")
	tr.SetQuery("q=parallel&mode=and")
	tr.SetGeneration(3)

	wait := tr.StartSpan(ReqStageWait)
	time.Sleep(time.Millisecond)
	wait.End()

	cache := tr.StartSpan(ReqStageCache)
	cache.SetNote("miss")
	pread := tr.StartSpan(ReqStagePread)
	pread.AddBytes(4096)
	time.Sleep(time.Millisecond)
	pread.End()
	dec := tr.StartSpan(ReqStageDecode)
	dec.SetNote("varbyte")
	dec.End()
	cache.End()

	merge := tr.StartSpan(ReqStageMerge)
	merge.AddItems(2)
	merge.End()

	d := tr.Finish(200, "")
	if d <= 0 {
		t.Fatalf("Finish duration = %v, want > 0", d)
	}
	rec := tr.Snapshot()
	if rec.Ev != "reqtrace" || rec.Endpoint != "search" || rec.Gen != 3 {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(rec.Spans))
	}
	// Root, then wait/cache/merge as its children; pread+decode under cache.
	if rec.Spans[0].Par != -1 || rec.Spans[0].Stage != ReqStageHandler {
		t.Fatalf("root span = %+v", rec.Spans[0])
	}
	wantPar := []int{-1, 0, 0, 2, 2, 0}
	for i, sp := range rec.Spans {
		if sp.Par != wantPar[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, sp.Stage, sp.Par, wantPar[i])
		}
	}
	if rec.Spans[3].Bytes != 4096 {
		t.Errorf("pread bytes = %d, want 4096", rec.Spans[3].Bytes)
	}
	if rec.Spans[2].Note != "miss" || rec.Spans[4].Note != "varbyte" {
		t.Errorf("notes = %q %q", rec.Spans[2].Note, rec.Spans[4].Note)
	}

	// The finished record must satisfy its own validator.
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	w.Write(tr)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ValidateTraces(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Traces != 1 || st.Endpoints["search"] != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxQueryStages < 5 {
		t.Fatalf("MaxQueryStages = %d, want >= 5", st.MaxQueryStages)
	}
}

func TestRequestTraceNilSafety(t *testing.T) {
	var tr *RequestTrace
	sp := tr.StartSpan(ReqStageDict)
	sp.AddBytes(10)
	sp.AddItems(1)
	sp.SetNote("x")
	sp.End()
	tr.SetQuery("q")
	tr.SetGeneration(1)
	tr.SetAttr("k", 1)
	tr.MarkSlow()
	if d := tr.Finish(200, ""); d != 0 {
		t.Fatalf("nil Finish = %v", d)
	}
	if got := TraceFrom(context.Background()); got != nil {
		t.Fatalf("TraceFrom(Background) = %v", got)
	}
}

func TestRequestTraceZeroAllocFastPath(t *testing.T) {
	s := NewSampler(1000, 250*time.Millisecond)
	ctx := context.Background()
	var tr *RequestTrace

	s.Sample() // consume the deterministic first-request sample
	if n := testing.AllocsPerRun(200, func() {
		_ = s.Sample() // unsampled for the next 999 calls either way
		tr = TraceFrom(ctx)
		sp := tr.StartSpan(ReqStageCache)
		sp.AddBytes(1)
		sp.End()
	}); n != 0 {
		t.Fatalf("unsampled fast path allocates %.1f/op, want 0", n)
	}
}

func TestRequestTraceLateSpansDropped(t *testing.T) {
	tr := NewRequestTrace("search")
	sp := tr.StartSpan(ReqStagePread)
	tr.Finish(504, "deadline")
	sp.End() // abandoned goroutine ending after Finish
	late := tr.StartSpan(ReqStageDecode)
	late.End()
	rec := tr.Snapshot()
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans after late activity, want 2", len(rec.Spans))
	}
	// The open pread span was closed by Finish within the trace window.
	if rec.Spans[1].StartMs+rec.Spans[1].DurMs > rec.DurMs+spanEps {
		t.Fatalf("span closed outside trace window: %+v vs %.3f", rec.Spans[1], rec.DurMs)
	}
}

func TestRequestTraceConcurrentSpans(t *testing.T) {
	tr := NewRequestTrace("search")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan(ReqStagePread)
				sp.AddBytes(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish(200, "")
	rec := tr.Snapshot()
	if len(rec.Spans) != 801 {
		t.Fatalf("got %d spans, want 801", len(rec.Spans))
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(4, 100*time.Millisecond)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampler hit %d/400", hits)
	}
	if !s.Slow(150 * time.Millisecond) {
		t.Error("150ms not slow at 100ms threshold")
	}
	if s.Slow(50 * time.Millisecond) {
		t.Error("50ms slow at 100ms threshold")
	}
	if NewSampler(0, 0).Sample() {
		t.Error("disabled sampler sampled")
	}
	if !NewSampler(1, -1).Sample() {
		t.Error("every=1 sampler skipped")
	}
	if !NewSampler(1, -1).Slow(0) {
		t.Error("negative threshold must treat everything as slow")
	}
	var nilS *Sampler
	if nilS.Sample() || nilS.Slow(time.Hour) || nilS.Enabled() {
		t.Error("nil sampler must be inert")
	}
}

func TestTraceBufferRetention(t *testing.T) {
	b := NewTraceBuffer(4)
	var slowID string
	for i := 0; i < 10; i++ {
		tr := NewRequestTrace("search")
		if i == 2 {
			tr.MarkSlow()
			slowID = tr.ID()
		}
		tr.Finish(200, "")
		b.Add(tr)
	}
	// The slow trace from round 2 was evicted from the recent ring by
	// rounds 3..9 but survives in the pinned slow ring.
	if got := b.Get(slowID); got == nil {
		t.Fatalf("slow trace %s evicted despite pinning", slowID)
	}
	traces := b.Traces()
	if len(traces) != 5 { // 4 recent + 1 pinned slow
		t.Fatalf("Traces() = %d, want 5", len(traces))
	}
	for i := 1; i < len(traces); i++ {
		// Newest-first within the recent window.
		if i < 4 && traces[i].start.After(traces[i-1].start) {
			t.Fatalf("traces out of order at %d", i)
		}
	}
}

func TestSlowLog(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowLogEntry{Endpoint: "search", DurMs: float64(i)})
	}
	got := l.Entries()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	if got[0].DurMs != 4 || got[2].DurMs != 2 {
		t.Fatalf("wrong order/retention: %+v", got)
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
}

func TestRequestTraceJSONRoundTrip(t *testing.T) {
	tr := NewRequestTrace("seal")
	tr.SetAttr("docs", 42)
	sp := tr.StartSpan(ReqStageEncode)
	sp.End()
	w := tr.StartSpan(ReqStageWrite)
	w.End()
	c := tr.StartSpan(ReqStageCommit)
	c.End()
	tr.Finish(0, "")

	b, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var rec TraceRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Endpoint != "seal" || len(rec.Spans) != 4 || rec.Attrs["docs"] != float64(42) {
		t.Fatalf("round trip lost data: %+v", rec)
	}
	if _, err := ValidateTraces(bytes.NewReader(append(b, '\n'))); err != nil {
		t.Fatalf("op trace failed validation: %v", err)
	}
}

func TestHistogramFuncExposition(t *testing.T) {
	r := NewRegistry()
	r.HistogramFunc("cache_entry_bytes", "resident entry sizes",
		[]float64{64, 256, 1024}, func() HistSnapshot {
			return HistSnapshot{Counts: []uint64{2, 3, 0}, Sum: 900, Count: 6}
		})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cache_entry_bytes histogram",
		`cache_entry_bytes_bucket{le="64"} 2`,
		`cache_entry_bytes_bucket{le="256"} 5`,
		`cache_entry_bytes_bucket{le="1024"} 5`,
		`cache_entry_bytes_bucket{le="+Inf"} 6`,
		"cache_entry_bytes_sum 900",
		"cache_entry_bytes_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
