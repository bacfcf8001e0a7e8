package serve

import (
	"time"

	"fastinvert/internal/telemetry"
)

// Metrics tracks the server's query counters and latency distribution
// in a telemetry.Registry, which /metrics exposes in Prometheus format.
// All methods are safe for concurrent use; Observe is a handful of
// atomic adds — no lock and no allocation on the query hot path.
type Metrics struct {
	start   time.Time
	queries *telemetry.Counter
	errors  *telemetry.Counter
	latency *telemetry.Histogram
}

// NewMetrics starts the uptime clock on a private registry (tests,
// embedded use). Servers share their registry via NewMetricsOn.
func NewMetrics() *Metrics { return NewMetricsOn(telemetry.NewRegistry()) }

// NewMetricsOn registers the query metric families on reg and starts
// the uptime clock.
func NewMetricsOn(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		start: time.Now(),
		queries: reg.Counter("hetserve_queries_total",
			"Queries executed (all endpoints, including failed)."),
		errors: reg.Counter("hetserve_query_errors_total",
			"Queries that returned an error (timeouts, bad input, corrupt index)."),
		latency: reg.Histogram("hetserve_query_seconds",
			"Query latency distribution in seconds.", telemetry.DefBuckets),
	}
	reg.GaugeFunc("hetserve_uptime_seconds",
		"Seconds since the server's metrics were initialized.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// Observe records one completed query.
func (m *Metrics) Observe(d time.Duration, err error) {
	m.queries.Inc()
	if err != nil {
		m.errors.Inc()
	}
	m.latency.Observe(d.Seconds())
}
