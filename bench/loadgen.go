package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one connection's worth of load generator: its transport
// keeps a single keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and reads the whole response. A transport error, a
// timeout or a status outside r.ok is a failure.
func (c *client) do(r request) (body []byte, status int, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, c.base+r.path, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp.StatusCode, err
	}
	for _, ok := range r.ok {
		if resp.StatusCode == ok {
			return body, resp.StatusCode, nil
		}
	}
	return body, resp.StatusCode, fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, resp.StatusCode, body)
}

// tally counts operations of a run; failed over attempted is the
// failed share.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	firstErr          error
}

func (t *tally) add(err error) {
	t.attempted.Add(1)
	if err != nil {
		t.fail(err)
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = err
	}
	t.mu.Unlock()
}

// timing is one successful request: when it was answered (closed loop)
// or due (open loop), counted from the start of its phase, and how long
// it took.
type timing struct{ at, lat time.Duration }

func lats(ts []timing) []time.Duration {
	out := make([]time.Duration, len(ts))
	for i, x := range ts {
		out[i] = x.lat
	}
	return out
}

// windows cuts a phase of length total into whole windows of the given
// width and returns each one's latencies. The box this runs on slows
// down in bursts of a few hundred milliseconds; a median over windows
// shrugs those off where one figure for the whole phase does not.
func windows(ts []timing, width, total time.Duration) [][]time.Duration {
	out := make([][]time.Duration, int(total/width))
	for _, x := range ts {
		if w := int(x.at / width); w < len(out) {
			out[w] = append(out[w], x.lat)
		}
	}
	return out
}

// closedLoop drives conns clients, each sending its next request only
// after the previous answer, taking requests from reqs at cursor (and
// wrapping). It stops after n requests when n > 0, else after d. It
// returns the successful requests.
func closedLoop(base string, reqs []request, cursor *atomic.Int64, conns, n int, d time.Duration, t *tally) []timing {
	per := make([][]timing, conns)
	var wg sync.WaitGroup
	var taken atomic.Int64
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for {
				if n > 0 && taken.Add(1) > int64(n) {
					return
				}
				if n == 0 && time.Since(t0) >= d {
					return
				}
				r := reqs[int(cursor.Add(1)-1)%len(reqs)]
				s := time.Now()
				_, _, err := c.do(r)
				t.add(err)
				if end := time.Now(); err == nil {
					per[w] = append(per[w], timing{end.Sub(t0), end.Sub(s)})
				}
			}
		}(w)
	}
	wg.Wait()
	var all []timing
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// sleepUntil blocks the calling thread in nanosleep(2) until shortly
// before t and spins through the rest: the runtime's own timers fire up
// to a millisecond late, which is as long as the requests being timed,
// and on a shared host a sleeping thread wakes 0.1 ms late at the median
// and 0.5 ms or more at the p99, all of which an open loop charges to
// the request.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinBeforeDue; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	for time.Now().Before(t) {
	}
}

// spinBeforeDue is how long before an operation is due its stream stops
// sleeping: 6% of one core per stream at 200 operations a second.
const spinBeforeDue = 300 * time.Microsecond

// op is one scheduled operation of an open-loop stream.
type op struct {
	req   request
	due   time.Duration // after the phase start
	timed bool          // its latency is reported
}

// openResult is what one open-loop stream measured.
type openResult struct {
	lat  []timing        // answer minus due time, timed successful ops
	late []time.Duration // send minus due time, ops the stream was idle for
}

// openLoop sends ops on their schedule over one connection. Each is
// timed from the moment it was due, so the wait a stall imposes on the
// requests queued behind it is counted; late holds the generator's own
// lateness, taken only from ops whose predecessor had answered before
// they were due.
func openLoop(c *client, ops []op, t0 time.Time, t *tally) openResult {
	var res openResult
	prevDone := t0
	for _, o := range ops {
		due := t0.Add(o.due)
		sleepUntil(due)
		sent := time.Now()
		if !prevDone.After(due) {
			res.late = append(res.late, sent.Sub(due))
		}
		_, _, err := c.do(o.req)
		prevDone = time.Now()
		t.add(err)
		if err == nil && o.timed {
			res.lat = append(res.lat, timing{o.due, prevDone.Sub(due)})
		}
	}
	return res
}
