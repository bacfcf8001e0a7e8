package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// selfCheckVocab is the seeded corpus vocabulary. Plain lowercase
// words that survive query normalization, so every term ingested is
// also queryable verbatim.
var selfCheckVocab = []string{
	"parallel", "inverted", "index", "posting", "merge", "segment",
	"batch", "kernel", "device", "host", "stream", "partition",
	"sort", "scan", "gather", "scatter", "buffer", "throughput",
	"latency", "pipeline", "shard", "token", "corpus", "document",
}

// runSelfCheck binds the server to a loopback port and drives a
// seeded, deterministic ingest + maintenance + query load against it
// over real HTTP — the workload CI's trace-serve job traces and then
// validates with cmd/tracecheck. It exercises every traced
// endpoint: ingest, delete, seal, compact, search (all modes) and
// postings, plus the debug surfaces. An ingest follows every search
// and every postings request, and no search names a word twice, so no
// term is looked up twice at one index generation: the load fails
// unless the postings cache scores hits across generations (on the
// sealed segments).
func runSelfCheck(h http.Handler, positional bool) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: h}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	c := &http.Client{Timeout: 30 * time.Second}
	rng := rand.New(rand.NewSource(42))

	doc := func() string {
		n := 8 + rng.Intn(12)
		words := make([]string, n)
		for i := range words {
			words[i] = selfCheckVocab[rng.Intn(len(selfCheckVocab))]
		}
		return strings.Join(words, " ")
	}
	nextDoc := 0
	ingest := func() error {
		if err := post(c, base+"/ingest", doc()); err != nil {
			return err
		}
		nextDoc++
		return nil
	}
	queries := func() error {
		modes := []string{"and", "or", "topk"}
		if positional {
			modes = append(modes, "phrase")
		}
		n := len(selfCheckVocab)
		for i := 0; i < 12; i++ {
			i1 := rng.Intn(n)
			w1, w2 := selfCheckVocab[i1], selfCheckVocab[(i1+1+rng.Intn(n-1))%n]
			mode := modes[i%len(modes)]
			q := url.Values{"q": {w1 + " " + w2}, "mode": {mode}, "k": {"5"}}
			if err := get(c, base+"/search?"+q.Encode()); err != nil {
				return err
			}
			if err := ingest(); err != nil {
				return err
			}
		}
		for i := 0; i < 4; i++ {
			w := selfCheckVocab[rng.Intn(len(selfCheckVocab))]
			// Unknown terms 404 in live mode; both outcomes are valid load.
			if err := getStatus(c, base+"/postings?term="+w,
				http.StatusOK, http.StatusNotFound); err != nil {
				return err
			}
			if err := ingest(); err != nil {
				return err
			}
		}
		return nil
	}

	// Two ingest waves with a seal between them, so queries fan out over
	// sealed segments and the memtable; deletions plus a compaction
	// exercise the background-operation traces.
	for wave := 0; wave < 2; wave++ {
		for i := 0; i < 40; i++ {
			if err := ingest(); err != nil {
				return err
			}
		}
		for i := 0; i < 3; i++ {
			victim := rng.Intn(nextDoc)
			if err := post(c, fmt.Sprintf("%s/delete?doc=%d", base, victim), ""); err != nil {
				return err
			}
		}
		if err := post(c, base+"/seal", ""); err != nil {
			return err
		}
		if err := queries(); err != nil {
			return err
		}
	}
	if err := post(c, base+"/compact", ""); err != nil {
		return err
	}
	if err := queries(); err != nil {
		return err
	}

	// The observability surfaces must be live after the load.
	for _, check := range []struct{ path, want string }{
		{"/debug/slowlog", `"entries"`},
		{"/debug/trace", `"traces"`},
		{"/metrics", "hetserve_stage_seconds"},
		{"/metrics", "hetserve_endpoint_seconds"},
		{"/metrics", "hetserve_inflight_requests"},
	} {
		body, err := fetch(c, base+check.path)
		if err != nil {
			return err
		}
		if !strings.Contains(body, check.want) {
			return fmt.Errorf("%s: missing %q in response", check.path, check.want)
		}
	}
	body, err := fetch(c, base+"/metrics")
	if err != nil {
		return err
	}
	if hits, ok := metricValue(body, "hetserve_cache_hits_total"); !ok || hits == 0 {
		return fmt.Errorf("/metrics: hetserve_cache_hits_total is %v under a write load, want > 0", hits)
	}
	return nil
}

// metricValue reads an unlabelled sample out of Prometheus text.
func metricValue(body, name string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f, err == nil
		}
	}
	return 0, false
}

func fetch(c *http.Client, u string) (string, error) {
	resp, err := c.Get(u)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", u, resp.StatusCode, body)
	}
	return string(body), nil
}

func get(c *http.Client, u string) error {
	_, err := fetch(c, u)
	return err
}

func getStatus(c *http.Client, u string, accept ...int) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	for _, s := range accept {
		if resp.StatusCode == s {
			return nil
		}
	}
	return fmt.Errorf("GET %s: unexpected status %d", u, resp.StatusCode)
}

func post(c *http.Client, u, body string) error {
	resp, err := c.Post(u, "text/plain", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", u, resp.StatusCode, raw)
	}
	return nil
}
