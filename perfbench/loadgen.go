package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/service"
)

// clients is the closed loop's concurrency: two callers, each on one
// keep-alive connection, each sending its next request only after the
// previous reply.
const clients = 2

// maxM bounds the predicates a recorded ledger holds.
const maxM = 4

type reqKind uint8

const (
	kindQuery reqKind = iota // one-shot POST /query
	kindOpen                 // POST /query with "cursor":true
	kindPage                 // POST /query/next deepening
	kindClose                // POST /query/next close
)

// reqRecord is one request as the client saw it. It holds no pointers, so
// the run's records cost the heap exactly their slices' capacity.
type reqRecord struct {
	kind    reqKind
	ok      bool
	latency time.Duration
	sorted  [maxM]int32
	random  [maxM]int32
	cost    float64
}

// sessionRecord is one session's outcome: the digest of every answer it
// received and its final cumulative ledger.
type sessionRecord struct {
	index  int
	failed bool
	items  digest
	nItems int
	// first/last index the session's requests in its client's reqRecord
	// slice.
	first, last int
	// billedSorted/billedRandom are the final ledger's Σns_i and Σnr_i.
	billedSorted, billedRandom int64
	// start and end bracket the session, from the start of its phase.
	start, end time.Duration
}

// queryBody is the POST /query payload the client sends.
type queryBody struct {
	SQL    string `json:"sql"`
	Cursor bool   `json:"cursor,omitempty"`
}

// nextBody is the POST /query/next payload.
type nextBody struct {
	Cursor string `json:"cursor"`
	K      int    `json:"k,omitempty"`
	Close  bool   `json:"close,omitempty"`
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	base   string
	hc     *http.Client
	traced bool
	body   bytes.Buffer
	// origin is the start of the phase the client runs in.
	origin time.Time

	reqs     []reqRecord
	sessions []sessionRecord
	reasons  []string
	// spans collects per-request trace data in the traced run.
	spans []*span
}

func newClient(base string, traced bool) *client {
	return &client{
		base:   base,
		traced: traced,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request and decodes the reply, timing from send until the
// body is decoded.
func (c *client) post(path string, payload interface{}, kind reqKind, sessIdx int, sql string) (*service.QueryResponse, reqRecord, string) {
	rec := reqRecord{kind: kind}
	c.body.Reset()
	if err := json.NewEncoder(&c.body).Encode(payload); err != nil {
		return nil, rec, "encode: " + err.Error()
	}
	url := c.base + path
	if c.traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(c.body.Bytes()))
	if err != nil {
		return nil, rec, err.Error()
	}
	req.Header.Set("Content-Type", "application/json")
	var sp *span
	if c.traced {
		sp = &span{kind: kind, session: sessIdx, sql: sql}
		req.Header.Set(spanHeader, strconv.FormatUint(spanIDs.next(sp), 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.latency = time.Since(start)
		return nil, rec, "transport: " + err.Error()
	}
	var qr service.QueryResponse
	derr := json.NewDecoder(resp.Body).Decode(&qr)
	rec.latency = time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if sp != nil {
		sp.clientStart, sp.clientEnd = start, start.Add(rec.latency)
		sp.trace = qr.Trace
		c.spans = append(c.spans, sp)
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		return nil, rec, fmt.Sprintf("HTTP %d", resp.StatusCode)
	case derr != nil:
		return nil, rec, "decode: " + derr.Error()
	case len(qr.Degraded) > 0:
		return nil, rec, fmt.Sprintf("degraded %v", qr.Degraded)
	case qr.Truncated:
		return nil, rec, "truncated"
	}
	if len(qr.SortedAccesses) > maxM || len(qr.RandomAccesses) > maxM {
		return nil, rec, "ledger wider than the benchmark records"
	}
	for i, v := range qr.SortedAccesses {
		rec.sorted[i] = int32(v)
	}
	for i, v := range qr.RandomAccesses {
		rec.random[i] = int32(v)
	}
	rec.cost = qr.Cost
	rec.ok = true
	return &qr, rec, ""
}

// run executes one session — a one-shot query, or open + pages + close —
// recorded under schedule index idx. Every request lands in c.reqs and the
// session in c.sessions. It returns the session's first failure, or "".
func (c *client) run(s *session, idx int) string {
	sr := sessionRecord{index: idx, items: newDigest(), first: len(c.reqs), start: time.Since(c.origin)}
	failure := ""
	fail := func(why string) {
		if failure == "" {
			failure = why
		}
		sr.failed = true
	}
	keep := func(qr *service.QueryResponse, rec reqRecord, why string) bool {
		c.reqs = append(c.reqs, rec)
		if why != "" {
			fail(why)
			return false
		}
		for _, it := range qr.Items {
			sr.items = sr.items.item(it.Object, it.Score, it.Exact)
			sr.nItems++
		}
		sr.billedSorted, sr.billedRandom = 0, 0
		for i := 0; i < maxM; i++ {
			sr.billedSorted += int64(rec.sorted[i])
			sr.billedRandom += int64(rec.random[i])
		}
		return true
	}
	if !s.Cursor() {
		qr, rec, why := c.post("/query", queryBody{SQL: s.SQL}, kindQuery, idx, s.SQL)
		keep(qr, rec, why)
	} else {
		qr, rec, why := c.post("/query", queryBody{SQL: s.SQL, Cursor: true}, kindOpen, idx, s.SQL)
		if keep(qr, rec, why) {
			id := qr.Cursor
			for _, k := range s.Pages {
				qr, rec, why := c.post("/query/next", nextBody{Cursor: id, K: k}, kindPage, idx, s.SQL)
				if !keep(qr, rec, why) {
					break
				}
			}
			_, rec, why := c.post("/query/next", nextBody{Cursor: id, Close: true}, kindClose, idx, s.SQL)
			c.reqs = append(c.reqs, rec)
			if why != "" {
				fail(why)
			}
		}
	}
	sr.last, sr.end = len(c.reqs), time.Since(c.origin)
	c.sessions = append(c.sessions, sr)
	if failure != "" && len(c.reasons) < 5 {
		c.reasons = append(c.reasons, fmt.Sprintf("session %d %q: %s", idx, s.SQL, failure))
	}
	return failure
}

// unlimited marks a phase that has not yet fixed its session count.
const unlimited = math.MaxInt

// phase hands out schedule indices to the clients. Past its minimum it
// stops at the first pass boundary after the deadline, so a run serves
// whole passes: the same mix on every commit and every seed.
type phase struct {
	mu       sync.Mutex
	next     int
	limit    int
	minimum  int
	passSize int
	deadline time.Time
}

func (p *phase) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit == unlimited && p.next >= p.minimum && !time.Now().Before(p.deadline) {
		p.limit = (p.next + p.passSize - 1) / p.passSize * p.passSize
	}
	if p.next >= p.limit {
		return 0, false
	}
	i := p.next
	p.next++
	return i, true
}

// phaseSpec sizes a timed phase.
type phaseSpec struct {
	// seconds is the phase's minimum length, rounded up to whole passes.
	seconds float64
	// minPasses is the minimum number of passes (at least 1).
	minPasses int
	// sessions, when > 0, runs exactly this many sessions instead.
	sessions int
	// warmup runs the warm-up pass instead of the timed sequence.
	warmup bool
}

// minPassesFor returns how many passes give every tail percentile the
// benchmark reports at least ten samples beyond it: 1000 one-shot queries
// for the p99, 100 cursor pages for the p90.
func minPassesFor(w *workload, seed int64) int {
	oneShot, pages := 0, 0
	for _, sh := range w.pass(seed) {
		if sh.Cursor {
			pages += len(cursorPages)
		} else {
			oneShot++
		}
	}
	n := 1
	for beyond(n*oneShot, 0.99) < 10 || beyond(n*pages, 0.90) < 10 {
		n++
	}
	return n
}

// phaseResult is everything a timed phase measured.
type phaseResult struct {
	wall     time.Duration
	sessions int
	reqs     []reqRecord
	recs     []sessionRecord
	reasons  []string
	spans    []*span
	// Memory counters across the phase.
	mallocs, totalAlloc, numGC uint64
	// ownBytes is the heap the records themselves occupy.
	ownBytes uint64
}

// merge appends deployment i's phase. Session indices move past every
// earlier deployment's, so each deployment's passes stay distinct.
func (ph *phaseResult) merge(o *phaseResult, i int) {
	const stride = 1 << 40
	off := len(ph.reqs)
	ph.reqs = append(ph.reqs, o.reqs...)
	for _, s := range o.recs {
		s.index += i * stride
		s.first += off
		s.last += off
		ph.recs = append(ph.recs, s)
	}
	ph.wall += o.wall
	ph.sessions += o.sessions
	ph.mallocs += o.mallocs
	ph.totalAlloc += o.totalAlloc
	ph.numGC += o.numGC
	ph.ownBytes = uint64(cap(ph.reqs))*uint64(unsafe.Sizeof(reqRecord{})) +
		uint64(cap(ph.recs))*uint64(unsafe.Sizeof(sessionRecord{}))
}

// runPhase drives the system with the closed loop until the phase spec
// is met.
func runPhase(w *workload, seed int64, base string, spec phaseSpec, traced bool) *phaseResult {
	p := &phase{limit: unlimited, passSize: w.passSize(seed)}
	p.minimum = max(spec.minPasses, 1) * p.passSize
	if spec.sessions > 0 {
		p.limit = spec.sessions
	}
	next := w.session
	if spec.warmup {
		next, p.limit = w.warmupSession, len(w.combos)
	}
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(base, traced)
	}
	var before, after runtimeStats
	before.read()
	start := time.Now()
	p.deadline = start.Add(time.Duration(spec.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, c := range cls {
		c.origin = start
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i, ok := p.take()
				if !ok {
					return
				}
				s := next(seed, i)
				c.run(&s, i)
			}
		}(c)
	}
	wg.Wait()
	res := &phaseResult{wall: time.Since(start), sessions: p.next}
	after.read()
	res.mallocs = after.mallocs - before.mallocs
	res.totalAlloc = after.totalAlloc - before.totalAlloc
	res.numGC = uint64(after.numGC - before.numGC)
	for _, c := range cls {
		c.close()
		off := len(res.reqs)
		res.reqs = append(res.reqs, c.reqs...)
		for _, sr := range c.sessions {
			sr.first += off
			sr.last += off
			res.recs = append(res.recs, sr)
		}
		res.reasons = append(res.reasons, c.reasons...)
		res.spans = append(res.spans, c.spans...)
	}
	sort.Slice(res.recs, func(a, b int) bool { return res.recs[a].index < res.recs[b].index })
	res.ownBytes = uint64(cap(res.reqs))*uint64(unsafe.Sizeof(reqRecord{})) +
		uint64(cap(res.recs))*uint64(unsafe.Sizeof(sessionRecord{}))
	return res
}
