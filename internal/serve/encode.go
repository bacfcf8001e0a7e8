package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// jsonAppender is implemented by the hot response shapes — the query
// endpoints' searchResponse and postingsResponse, and live ingest's
// ingestResponse and deleteResponse: appendJSON appends exactly the
// value encoding/json would marshal — same field names and order, same
// omitempty behaviour, same string escaping and float formatting —
// without reflection, indentation or a per-element call.
type jsonAppender interface {
	appendJSON(b []byte) []byte
}

// maxPooledBuf is the largest response buffer encPool keeps. A result
// list is unbounded (every matching docID), so a buffer that grew past
// this is left to the collector instead of pinning its peak size for
// the life of the process.
const maxPooledBuf = 1 << 20

// encPool holds the response buffers of writeJSON's fast path. A
// buffer is taken and returned on the handler goroutine, after the
// query's pool worker has finished with the response value.
var encPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// writeJSON is the single exit for every JSON response. A jsonAppender
// (pass a pointer, so the value is not boxed) is encoded compactly into
// a pooled buffer and leaves in one Write under a Content-Length; it
// may alias a cached postings list, which is only read here. Every
// other value — errors, /healthz, /debug/*, /seal and /compact —
// goes through encoding/json, indented, as before.
func writeJSON(w http.ResponseWriter, status int, v any) {
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	a, ok := v.(jsonAppender)
	if !ok {
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(v)
		return
	}
	bp := encPool.Get().(*[]byte)
	b := append(a.appendJSON((*bp)[:0]), '\n')
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b) // a client that went away is not the query's error
	if cap(b) <= maxPooledBuf {
		*bp = b
		encPool.Put(bp)
	}
}

func (r *searchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, r.Query)
	b = append(b, `,"mode":`...)
	b = appendString(b, r.Mode)
	if r.K != 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(r.K), 10)
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(r.Count), 10)
	if len(r.Docs) > 0 {
		b = append(b, `,"docs":`...)
		b = appendUint32s(b, r.Docs)
	}
	if len(r.Ranked) > 0 {
		b = append(b, `,"ranked":[`...)
		for i, d := range r.Ranked {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"doc":`...)
			b = strconv.AppendUint(b, uint64(d.Doc), 10)
			b = append(b, `,"score":`...)
			b = appendFloat(b, d.Score)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"took_ms":`...)
	b = appendFloat(b, r.TookMs)
	return append(b, '}')
}

func (r *ingestResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"doc":`...)
	b = strconv.AppendUint(b, uint64(r.Doc), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, '}')
}

func (r *deleteResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"deleted":`...)
	b = strconv.AppendBool(b, r.Deleted)
	b = append(b, `,"doc":`...)
	b = strconv.AppendUint(b, uint64(r.Doc), 10)
	b = append(b, `,"generation":`...)
	b = strconv.AppendUint(b, r.Generation, 10)
	return append(b, '}')
}

func (r *postingsResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"term":`...)
	b = appendString(b, r.Term)
	b = append(b, `,"normalized":`...)
	b = appendString(b, r.Normalized)
	b = append(b, `,"df":`...)
	b = strconv.AppendInt(b, int64(r.DF), 10)
	b = append(b, `,"docs":`...)
	b = appendUint32s(b, r.Docs)
	b = append(b, `,"tfs":`...)
	b = appendUint32s(b, r.TFs)
	if r.Truncated {
		b = append(b, `,"truncated":true`...)
	}
	return append(b, '}')
}

// digitPairs is "00" "01" … "99": two decimal digits per table lookup.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendUint32s appends v as a JSON array (null for a nil slice, as
// encoding/json does for a field without omitempty). It reserves room
// for the longest possible rendering once — ten digits and a comma per
// element, two brackets — and then writes every number's digits in
// place, two at a time, from its last digit back to its first.
func appendUint32s(b []byte, v []uint32) []byte {
	if v == nil {
		return append(b, "null"...)
	}
	p := len(b)
	b = slices.Grow(b, 11*len(v)+2)
	b = b[:p+11*len(v)+2]
	b[p] = '['
	p++
	for i, x := range v {
		if i > 0 {
			b[p] = ','
			p++
		}
		end := p + decimalLen(x)
		q := end
		for x >= 100 {
			r := x % 100 * 2
			x /= 100
			q -= 2
			b[q], b[q+1] = digitPairs[r], digitPairs[r+1]
		}
		if x >= 10 {
			b[q-2], b[q-1] = digitPairs[x*2], digitPairs[x*2+1]
		} else {
			b[q-1] = '0' + byte(x)
		}
		p = end
	}
	b[p] = ']'
	return b[:p+1]
}

// decimalLen is the number of decimal digits of x.
func decimalLen(x uint32) int {
	switch {
	case x < 100:
		if x < 10 {
			return 1
		}
		return 2
	case x < 10_000:
		if x < 1_000 {
			return 3
		}
		return 4
	case x < 1_000_000:
		if x < 100_000 {
			return 5
		}
		return 6
	case x < 100_000_000:
		if x < 10_000_000 {
			return 7
		}
		return 8
	case x < 1_000_000_000:
		return 9
	}
	return 10
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest decimal that parses back to the same bits, in exponent form
// only below 1e-6 or from 1e21 up, the exponent without a leading zero.
// JSON has no NaN or infinity (encoding/json refuses them); they are
// written as null so the response stays valid.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaped as encoding/json
// escapes by default, so any input bytes yield valid JSON that is safe
// to embed in HTML: quote, backslash and control characters, <, > and
// &, U+2028 and U+2029, and U+FFFD for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
