package serve

import (
	"context"
	"net/http"
	rpprof "runtime/pprof"
	"strconv"
	"sync"
	"time"

	"fastinvert/internal/telemetry"
)

// statusWriter captures the response status the wrapped handler wrote
// so the instrumentation after it can label the trace and slow-log
// entry, and counts the body bytes it wrote. Pooled: the unsampled fast
// path must not allocate per request.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += n
	return n, err
}

var swPool = sync.Pool{New: func() any { return new(statusWriter) }}

// stageBuckets spans 10µs..40s in powers of four — wide enough for a
// cache probe and a cold compaction-sized merge on the same axis.
var stageBuckets = telemetry.ExpBuckets(1e-5, 4, 12)

type stageKey struct{ endpoint, stage string }

// stageHist lazily registers the per-(endpoint,stage) latency
// histogram. Only sampled requests reach it, so the map lock is off
// the unsampled fast path entirely.
func (s *Server) stageHist(endpoint, stage string) *telemetry.Histogram {
	k := stageKey{endpoint, stage}
	s.stageMu.Lock()
	h := s.stageHists[k]
	if h == nil {
		h = s.cfg.Registry.Histogram("hetserve_stage_seconds",
			"Per-stage latency breakdown of sampled requests.",
			stageBuckets,
			telemetry.L("endpoint", endpoint), telemetry.L("stage", stage))
		s.stageHists[k] = h
	}
	s.stageMu.Unlock()
	return h
}

// instrument wraps an endpoint handler with the serving observability
// layer: in-flight accounting (shutdown drains on it), the closing
// gate, head sampling into a request trace carried on the context,
// pprof goroutine labels, the per-endpoint latency histogram, and —
// for sampled or slow requests only — trace retention, per-stage
// histograms and the slow-query log. The unsampled path touches two
// atomics, a pooled status writer, one counter add and one histogram
// observe: zero allocations.
//
// The per-endpoint histogram and byte counter are resolved once, at
// registration, so a request never looks anything up in the registry.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.cfg.Registry.Histogram("hetserve_endpoint_seconds",
		"Request latency by endpoint.", telemetry.DefBuckets,
		telemetry.L("endpoint", endpoint))
	sent := s.cfg.Registry.Counter("hetserve_response_bytes_total",
		"Response body bytes written, by endpoint.",
		telemetry.L("endpoint", endpoint))
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		if s.closing.Load() {
			httpError(w, http.StatusServiceUnavailable, "server is shutting down")
			return
		}

		var tr *telemetry.RequestTrace
		r2 := r
		if s.sampler.Sample() {
			tr = telemetry.NewRequestTrace(endpoint)
			tr.SetQuery(r.URL.RawQuery)
			r2 = r.WithContext(telemetry.ContextWithTrace(r.Context(), tr))
		}

		sw := swPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status, sw.bytes = w, 0, 0
		start := time.Now()
		if s.cfg.EnablePprof {
			// Label query goroutines so CPU profiles split by endpoint and
			// index generation. Allocates; gated behind the pprof flag.
			labels := rpprof.Labels("endpoint", endpoint, "generation", s.genLabel())
			rpprof.Do(r2.Context(), labels, func(ctx context.Context) {
				h(sw, r2.WithContext(ctx))
			})
		} else {
			h(sw, r2)
		}
		took := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		sent.Add(float64(sw.bytes))
		sw.ResponseWriter = nil
		swPool.Put(sw)

		hist.Observe(took.Seconds())
		slow := s.sampler.Slow(took)
		if tr == nil && !slow {
			return
		}
		errMsg := ""
		if status >= 400 {
			errMsg = http.StatusText(status)
		}
		if tr != nil {
			if slow {
				tr.MarkSlow()
			}
			tr.Finish(status, errMsg)
			for stage, ms := range tr.StageDurations() {
				s.stageHist(endpoint, stage).Observe(ms / 1e3)
			}
			s.traces.Add(tr)
			s.cfg.ReqTraces.Write(tr) // nil-safe; errors are sticky until Close

		}
		if slow {
			s.slowQueries.Add(1)
			e := telemetry.SlowLogEntry{
				Endpoint:    endpoint,
				Query:       r.URL.RawQuery,
				StartUnixMs: start.UnixMilli(),
				DurMs:       float64(took) / float64(time.Millisecond),
				Status:      status,
				Err:         errMsg,
			}
			if tr != nil {
				e.ID = tr.ID()
				e.Stages = tr.StageDurations()
			}
			s.slowlog.Add(e)
		}
	}
}

// genLabel renders the current index generation for pprof labels
// ("static" when serving an immutable index).
func (s *Server) genLabel() string {
	if s.live == nil {
		return "static"
	}
	return strconv.FormatUint(s.live.Gen(), 10)
}

// slowlogResponse is the /debug/slowlog JSON shape.
type slowlogResponse struct {
	ThresholdMs float64                  `json:"threshold_ms"`
	Total       uint64                   `json:"total"`
	Entries     []telemetry.SlowLogEntry `json:"entries"`
}

// handleSlowlog dumps the ring-buffered slow-query log, newest first:
//
//	GET /debug/slowlog
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowlogResponse{
		ThresholdMs: float64(s.sampler.SlowThreshold()) / float64(time.Millisecond),
		Total:       s.slowlog.Total(),
		Entries:     s.slowlog.Entries(),
	})
}

// traceSummary is one row of the /debug/trace listing.
type traceSummary struct {
	ID       string  `json:"id"`
	Endpoint string  `json:"endpoint"`
	Query    string  `json:"query,omitempty"`
	DurMs    float64 `json:"dur_ms"`
	Status   int     `json:"status"`
	Slow     bool    `json:"slow,omitempty"`
	Spans    int     `json:"spans"`
}

// handleTraceDump serves retained request traces:
//
//	GET /debug/trace        — summaries of every retained trace
//	GET /debug/trace?id=X   — the full span tree of one trace
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		all := s.traces.Traces()
		out := make([]traceSummary, 0, len(all))
		for _, t := range all {
			rec := t.Snapshot()
			out = append(out, traceSummary{
				ID:       rec.ID,
				Endpoint: rec.Endpoint,
				Query:    rec.Query,
				DurMs:    rec.DurMs,
				Status:   rec.Status,
				Slow:     rec.Slow,
				Spans:    len(rec.Spans),
			})
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": out})
		return
	}
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "trace "+id+" not retained")
		return
	}
	writeJSON(w, http.StatusOK, t.Snapshot())
}
