package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// record is the client-side outcome of one operation.
type record struct {
	op            int // index in the workload's operation sequence
	kind          opKind
	q             int // population index (query and stream operations)
	limit, offset int
	due           time.Time // open loop: scheduled send time; closed loop: send time
	sent          time.Time
	first         time.Time // streams: first answer line (or the trailer, for an empty window)
	done          time.Time
	status        int
	err           string // transport, protocol or trailer error
	// bad marks a 200 response whose body was malformed, truncated or
	// carried an error: the program answered wrongly, not just failed.
	bad   bool
	hash  uint64 // rows as received
	rows  int
	count int // reported full answer count; -1 when absent
	// Server-side handling time reported in the response.
	elapsedMS float64
	// lo..hi is the range of snapshots (update counts) the request could
	// have observed.
	lo, hi int
	// checked by verify: the answer matched the oracle.
	correct bool
}

func (r *record) latency() time.Duration { return r.done.Sub(r.due) }

// updSeq serialises update batches in sequence order: batch k is sent only
// after batch k-1 has been answered, so the server applies exactly the
// snapshot sequence the generator simulated.
type updSeq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	done    int          // batches answered
	started atomic.Int64 // batches sent
}

func newUpdSeq() *updSeq {
	s := &updSeq{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *updSeq) wait(k int) {
	s.mu.Lock()
	for s.done < k {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *updSeq) finish(k int) {
	s.mu.Lock()
	s.done = k + 1
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *updSeq) answered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// client sends a workload's operations to one base URL over a pooled
// keep-alive transport sized for its connections.
type client struct {
	hc   *http.Client
	base string
	w    *workload
	seq  *updSeq
}

func newClient(base string, w *workload, conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        4 * conns,
		MaxIdleConnsPerHost: 2 * conns,
		MaxConnsPerHost:     2 * conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, w: w, seq: newUpdSeq()}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// requestBody is the wire body of operation o: every query runs on the
// compiled engine with the auto backend, the serving path under test.
func requestBody(q *query, o op) []byte {
	b, err := json.Marshal(server.QueryRequest{Database: q.db, Query: q.text, Engine: "compiled", Backend: "auto",
		Stream: o.kind == opStream, Limit: o.limit, Offset: o.offset})
	if err != nil {
		panic(err)
	}
	return b
}

// exec runs operation i, timed from due.
func (c *client) exec(ctx context.Context, i int, due time.Time) record {
	o := c.w.gen.at(i)
	r := record{op: i, kind: o.kind, q: o.q, limit: o.limit, offset: o.offset, due: due, count: -1}
	if o.kind == opUpdate {
		c.execUpdate(ctx, &r, o.upd)
		return r
	}
	if c.w.gen.stateful {
		r.lo = c.seq.answered()
	}
	q := &c.w.pop[o.q]
	r.sent = time.Now()
	if o.kind == opStream {
		c.doStream(ctx, &r, requestBody(q, o))
	} else {
		c.doQuery(ctx, &r, requestBody(q, o))
	}
	r.done = time.Now()
	if c.w.gen.stateful {
		r.hi = int(c.seq.started.Load())
	}
	return r
}

// execUpdate sends update batch k once batch k-1 has been answered.
func (c *client) execUpdate(ctx context.Context, r *record, k int) {
	c.seq.wait(k)
	defer c.seq.finish(k)
	u := c.w.gen.update(k)
	c.seq.started.Store(int64(k + 1))
	r.sent = time.Now()
	c.doUpdate(ctx, r, u, k)
	r.done = time.Now()
}

func (c *client) post(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

// drain reads the rest of a body so the connection returns to the pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

func (c *client) doQuery(ctx context.Context, r *record, body []byte) {
	resp, err := c.post(ctx, "/query", body)
	if err != nil {
		r.err = err.Error()
		return
	}
	defer drain(resp)
	r.status = resp.StatusCode
	var out struct {
		Answer    [][]int `json:"answer"`
		Count     int     `json:"count"`
		ElapsedMS float64 `json:"elapsed_ms"`
		Error     string  `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		r.err, r.bad = "decoding response: "+err.Error(), resp.StatusCode == http.StatusOK
		return
	}
	if resp.StatusCode != http.StatusOK {
		r.err = out.Error
		return
	}
	h := newRowHash()
	for _, row := range out.Answer {
		for _, v := range row {
			h.add(v)
		}
	}
	r.hash, r.rows, r.count = h.sum(), len(out.Answer), out.Count
	r.elapsedMS = out.ElapsedMS
}

func (c *client) doStream(ctx context.Context, r *record, body []byte) {
	resp, err := c.post(ctx, "/query", body)
	if err != nil {
		r.err = err.Error()
		return
	}
	defer drain(resp)
	r.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		r.err = fmt.Sprintf("status %d", resp.StatusCode)
		return
	}
	// From here every failure is a malformed, truncated or failed answer.
	defer func() { r.bad = r.err != "" }()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	header, err := br.ReadBytes('\n')
	if err != nil || !bytes.HasPrefix(header, []byte("{")) {
		r.err = fmt.Sprintf("stream header: %v", err)
		return
	}
	h := newRowHash()
	var row []int
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err != nil {
			r.err = "stream ended without a trailer"
			return
		}
		if r.first.IsZero() {
			r.first = time.Now()
		}
		if line[0] == '[' {
			row = row[:0]
			if err := json.Unmarshal(line, &row); err != nil {
				r.err = "stream row: " + err.Error()
				return
			}
			for _, v := range row {
				h.add(v)
			}
			r.rows++
			continue
		}
		var tr struct {
			Trailer   bool    `json:"trailer"`
			Count     *int    `json:"count"`
			Streamed  int     `json:"streamed"`
			Error     string  `json:"error"`
			ElapsedMS float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(line, &tr); err != nil || !tr.Trailer {
			r.err = fmt.Sprintf("stream trailer: %v", err)
			return
		}
		if tr.Error != "" {
			r.err = "stream trailer error: " + tr.Error
			return
		}
		if tr.Streamed != r.rows {
			r.err = fmt.Sprintf("stream trailer counts %d rows, received %d", tr.Streamed, r.rows)
			return
		}
		if tr.Count != nil {
			r.count = *tr.Count
		}
		r.hash, r.elapsedMS = h.sum(), tr.ElapsedMS
		return
	}
}

func (c *client) doUpdate(ctx context.Context, r *record, u update, k int) {
	resp, err := c.post(ctx, "/db/"+u.db+"/update", u.body)
	if err != nil {
		r.err = err.Error()
		return
	}
	defer drain(resp)
	r.status = resp.StatusCode
	var out struct {
		Version  uint64 `json:"version"`
		Diverged bool   `json:"diverged"`
		Error    string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		r.err, r.bad = "decoding update response: "+err.Error(), resp.StatusCode == http.StatusOK
		return
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		r.err = out.Error
	case out.Diverged:
		r.err, r.bad = "replicas diverged", true
	case out.Version != uint64(k+1):
		r.err = fmt.Sprintf("update %d reached version %d, want %d", k, out.Version, k+1)
		r.bad = true
	default:
		r.correct = true
	}
}

// openResult is an open-loop phase's records and generator health.
type openResult struct {
	recs      []record
	lateness  []time.Duration // how late the generator released each arrival
	dropped   int             // arrivals the client backlog could not take
	abandoned int             // arrivals still queued at the phase deadline
}

// phaseGrace is how long an open-loop phase may run past its schedule.
const phaseGrace = 30 * time.Second

// maxBacklog bounds arrivals waiting for a free connection. Beyond it the
// generator drops arrivals (counted, and counted as SLO misses) rather than
// stalling its own schedule.
const maxBacklog = 4096

// openLoop sends operations first..first+len(at)-1 at their Poisson due
// times (offsets into a schedule span long) over conns connections and
// times each from its due time.
func openLoop(ctx context.Context, c *client, first int, at []time.Duration, span time.Duration, conns int) openResult {
	res := openResult{recs: make([]record, len(at)), lateness: make([]time.Duration, 0, len(at))}
	type arrival struct {
		i   int
		due time.Time
	}
	start := time.Now()
	// A server that falls far behind must not hold the run past its time
	// limit: work still queued a while after the schedule ends is abandoned.
	ctx, cancel := context.WithDeadline(ctx, start.Add(span+phaseGrace))
	defer cancel()
	var abandoned atomic.Int64
	ch := make(chan arrival, maxBacklog)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				if ctx.Err() != nil {
					o := c.w.gen.at(a.i)
					if o.kind == opUpdate {
						c.seq.finish(o.upd) // release the next batch's wait
					}
					abandoned.Add(1)
					res.recs[a.i-first] = record{op: a.i, kind: o.kind, due: a.due, err: "abandoned at the phase deadline", count: -1}
					continue
				}
				res.recs[a.i-first] = c.exec(ctx, a.i, a.due)
			}
		}()
	}
	for k, off := range at {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateness = append(res.lateness, time.Since(due))
		if c.w.gen.at(first+k).kind == opUpdate {
			// Updates are never dropped: the next batch waits for this one.
			ch <- arrival{first + k, due}
			continue
		}
		select {
		case ch <- arrival{first + k, due}:
		default:
			res.dropped++
			res.recs[k] = record{op: first + k, kind: c.w.gen.at(first + k).kind, due: due, sent: due, done: due, err: "dropped arrival", count: -1}
		}
	}
	close(ch)
	wg.Wait()
	res.abandoned = int(abandoned.Load())
	return res
}

// closedLoop runs conns clients back to back from operation `first` for d
// and returns the operations completed within d and the index of the first
// operation it did not take.
func closedLoop(ctx context.Context, c *client, first int, d time.Duration, conns int) ([]record, int) {
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	deadline := start.Add(d)
	ctx, cancel := context.WithDeadline(ctx, deadline.Add(30*time.Second))
	defer cancel()
	var mu sync.Mutex
	var recs []record
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []record
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				r := c.exec(ctx, i, time.Now())
				if r.done.After(deadline) {
					break
				}
				mine = append(mine, r)
			}
			mu.Lock()
			recs = append(recs, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return recs, int(next.Load())
}

// percentile is the nearest-rank q-quantile of ds (ds is sorted in place).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	k := int(q*float64(len(ds))+0.999999) - 1
	return ds[max(0, min(k, len(ds)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
