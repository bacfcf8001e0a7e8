package serve

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"fastinvert/internal/segment"
	"fastinvert/internal/store"
)

// maxIngestBytes bounds one /ingest request body. Documents in the
// paper's workloads are web pages, well under a megabyte; the limit
// exists so a single malformed upload cannot balloon the memtable.
const maxIngestBytes = 8 << 20

// handleIngest adds one document — the raw request body is the
// document text — and returns its assigned docID:
//
//	POST /ingest            body: document text
//	→ {"doc": 42, "generation": 17}
//
// Parsing and indexing run synchronously on the request goroutine; a
// 200 means the document is queryable (from the memtable) before the
// response is written. A seal the document triggers runs behind it.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxIngestBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(body) > maxIngestBytes {
		httpError(w, http.StatusRequestEntityTooLarge,
			"document exceeds "+strconv.Itoa(maxIngestBytes)+" bytes")
		return
	}
	doc, err := s.live.AddDocument(body)
	if err != nil {
		writeLiveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &ingestResponse{Doc: doc, Generation: s.live.Gen()})
}

// ingestResponse and deleteResponse are /ingest's and /delete's bodies;
// their fields are in alphabetical key order, the endpoints' wire
// format.
type ingestResponse struct {
	Doc        uint32 `json:"doc"`
	Generation uint64 `json:"generation"`
}

type deleteResponse struct {
	Deleted    bool   `json:"deleted"`
	Doc        uint32 `json:"doc"`
	Generation uint64 `json:"generation"`
}

// handleDelete tombstones one document:
//
//	POST /delete?doc=42
//
// Deleting an already-deleted document is idempotent (200 both times);
// a docID that was never assigned is 404.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	ds := r.URL.Query().Get("doc")
	if ds == "" {
		httpError(w, http.StatusBadRequest, "missing doc parameter")
		return
	}
	v, err := strconv.ParseUint(ds, 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, "doc must be a uint32")
		return
	}
	if err := s.live.Delete(uint32(v)); err != nil {
		writeLiveError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, &deleteResponse{Deleted: true, Doc: uint32(v), Generation: s.live.Gen()})
}

// handleSeal forces the memtable to seal into an on-disk segment:
//
//	POST /seal
//
// Normally sealing happens automatically every SealEvery documents;
// the endpoint exists for checkpointing (sealed documents survive a
// crash, memtable documents do not) and for tests. It answers once
// every document ingested before it is in a committed segment.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.live.Seal(); err != nil {
		writeLiveError(w, err)
		return
	}
	st := s.live.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"segments":   st.Segments,
		"seals":      st.Seals,
		"generation": st.Generation,
	})
}

// handleCompact synchronously folds all sealed segments into one,
// purging tombstoned documents:
//
//	POST /compact
//
// Queries keep answering from the pre-compaction view until the swap;
// only the caller waits. Background compactions triggered by CompactAt
// use the same code path.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if err := s.live.Compact(r.Context()); err != nil {
		writeLiveError(w, err)
		return
	}
	st := s.live.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"segments":    st.Segments,
		"compactions": st.Compactions,
		"purged":      st.Purged,
		"generation":  st.Generation,
	})
}

// writeLiveError maps segment-manager failures to HTTP statuses.
func writeLiveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, segment.ErrUnknownDoc):
		httpError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, store.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, store.ErrCorruptIndex):
		httpError(w, http.StatusInternalServerError, err.Error())
	default:
		writeQueryError(w, err)
	}
}
