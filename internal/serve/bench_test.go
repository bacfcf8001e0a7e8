package serve

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"fastinvert/internal/benchindex"
)

// BenchmarkHandlerBool is the serving path of the repository
// benchmark's serve_bool workload without the socket: its index
// (benchindex.Build) behind its 2 MiB postings cache, its two request
// kinds — AND of two words copied out of the documents, and one word's
// /postings — through Handler().ServeHTTP into a writer that counts and
// discards. Each kind reports ns, allocations and response body bytes
// per request, and asserts no time.
func BenchmarkHandlerBool(b *testing.B) {
	idx, docs := benchindex.Build(b)
	srv := New(idx, Config{CacheBytes: 2 << 20})
	defer srv.Close()
	h := srv.Handler()

	rng := rand.New(rand.NewSource(20110516))
	and := make([]*http.Request, 512)
	postings := make([]*http.Request, 512)
	// The benchmark lets /postings name a stop word and take the 404;
	// here every request is one that has a list to print.
	indexedWord := func() string {
		for {
			w := benchindex.Words(rng, docs, 1)[0]
			if _, stop := srv.searcher.Normalize(w); !stop {
				return w
			}
		}
	}
	for i := range and {
		ws := benchindex.Words(rng, docs, 2)
		and[i] = httptest.NewRequest("GET", "/search?mode=and&q="+url.QueryEscape(ws[0]+" "+ws[1]), nil)
		postings[i] = httptest.NewRequest("GET", "/postings?term="+url.QueryEscape(indexedWord()), nil)
	}
	for _, kind := range []struct {
		name string
		reqs []*http.Request
	}{{"and", and}, {"postings", postings}} {
		b.Run(kind.name, func(b *testing.B) {
			w := &nopResponseWriter{hdr: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := kind.reqs[i%len(kind.reqs)]
				h.ServeHTTP(w, r)
				if w.status != http.StatusOK {
					b.Fatalf("%s: status %d", r.URL, w.status)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.bytes)/float64(b.N), "body-bytes/op")
		})
	}
}
