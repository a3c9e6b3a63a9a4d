package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	topk "repro"
	"repro/internal/obs"
	"repro/internal/share"
)

// The traced run records spans from outside the program, at the public
// seams a deployment already offers: the client request, a wrapping
// http.Handler around Handler.ServeHTTP, the ?trace=1 phase timings the
// service reports, each query's backend through Config.WrapBackend, and
// each shard's http.Handler. Per-access calls are summarized as counts and
// summed time on their query's span, never one span per call. Spans stay
// in memory and are written out once the run ends.

// spanHeader carries the client span's id to the server-side wrapper.
const spanHeader = "X-Perfbench-Span"

// span is one request's trace: the client span, the server span it
// caused, the phases the service reported, and the backend summary of
// the query it ran.
type span struct {
	id      uint64
	kind    reqKind
	session int
	sql     string

	clientStart, clientEnd time.Time
	// serverStart/serverEnd (unix nanos) bracket Handler.ServeHTTP.
	serverStart, serverEnd atomic.Int64
	// trace is the service's own ?trace=1 report (phases, counters).
	trace *obs.TraceSnapshot

	// Backend calls made under this request's context: one-shot queries
	// run on the request context, so their accesses land here. Cursor
	// pages run on a context of their own and count only in the totals.
	sortedCalls, randomCalls atomic.Int64
	sortedNS, randomNS       atomic.Int64
}

func (s *span) serverDur() time.Duration {
	return time.Duration(s.serverEnd.Load() - s.serverStart.Load())
}

func (s *span) clientDur() time.Duration { return s.clientEnd.Sub(s.clientStart) }

func (s *span) backendNS() int64 { return s.sortedNS.Load() + s.randomNS.Load() }

// phase returns the duration the service reported for phase p.
func (s *span) phase(p obs.Phase) time.Duration {
	if s.trace == nil {
		return 0
	}
	var d float64
	for _, ph := range s.trace.Phases {
		if ph.Phase == p {
			d += ph.Seconds
		}
	}
	return time.Duration(d * float64(time.Second))
}

// phasesDur sums every phase the service reported: the part of the server
// span its children cover (they run one after another).
func (s *span) phasesDur() time.Duration {
	return s.phase(obs.PhaseParse) + s.phase(obs.PhasePlan) + s.phase(obs.PhaseOptimize) + s.phase(obs.PhaseExecute)
}

// spanRegistry hands out span ids and lets the server-side wrapper find
// the client's span object (client and server share the process).
type spanRegistry struct {
	mu   sync.Mutex
	last uint64
	byID map[uint64]*span
}

var spanIDs = &spanRegistry{byID: map[uint64]*span{}}

func (r *spanRegistry) next(s *span) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	s.id = r.last
	r.byID[s.id] = s
	return s.id
}

func (r *spanRegistry) lookup(id uint64) *span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

func (r *spanRegistry) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byID = map[uint64]*span{}
}

type spanKey struct{}

// counters are the tracer's run-wide totals.
type counters struct {
	sortedCalls, randomCalls int64
	sortedNS, randomNS       int64
	shardReqs, shardNS       int64
}

// tracer wraps a deployment's seams. Its totals include every call, also
// those no request span claims (cursor pages, warm-up); callers diff
// snapshots around the phase they measure.
type tracer struct {
	sortedCalls, randomCalls atomic.Int64
	sortedNS, randomNS       atomic.Int64
	shardReqs, shardNS       atomic.Int64
}

func (t *tracer) snapshot() counters {
	return counters{
		sortedCalls: t.sortedCalls.Load(), randomCalls: t.randomCalls.Load(),
		sortedNS: t.sortedNS.Load(), randomNS: t.randomNS.Load(),
		shardReqs: t.shardReqs.Load(), shardNS: t.shardNS.Load(),
	}
}

func (c counters) minus(o counters) counters {
	return counters{
		sortedCalls: c.sortedCalls - o.sortedCalls, randomCalls: c.randomCalls - o.randomCalls,
		sortedNS: c.sortedNS - o.sortedNS, randomNS: c.randomNS - o.randomNS,
		shardReqs: c.shardReqs - o.shardReqs, shardNS: c.shardNS - o.shardNS,
	}
}

// wrapHandler times Handler.ServeHTTP and hands the request's span to
// the backend wrapper through the request context.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		sp := spanIDs.lookup(id)
		if err != nil || sp == nil {
			h.ServeHTTP(w, r)
			return
		}
		sp.serverStart.Store(time.Now().UnixNano())
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
		sp.serverEnd.Store(time.Now().UnixNano())
	})
}

// wrapShard times one shard server's handler.
func (t *tracer) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.shardNS.Add(int64(time.Since(start)))
		t.shardReqs.Add(1)
	})
}

// wrapBackend is the service's Config.WrapBackend: it times every access
// the query's session makes. A backend advertising a cluster membership
// key keeps advertising it, so the plan cache keys traced queries exactly
// as untraced ones.
func (t *tracer) wrapBackend(b topk.Backend, _ []int) topk.Backend {
	tb := &tracedBackend{inner: b, tr: t}
	if mk := membershipOf(b); mk != nil {
		return &keyedBackend{tracedBackend: tb, mk: mk}
	}
	return tb
}

type membershipKeyed interface{ MembershipKey() string }

// membershipOf finds the membership key the engine would find below the
// sharing layer's per-query view.
func membershipOf(b topk.Backend) membershipKeyed {
	switch v := b.(type) {
	case membershipKeyed:
		return v
	case *share.View:
		return membershipOf(v.Layer().Backend())
	}
	return nil
}

type tracedBackend struct {
	inner topk.Backend
	tr    *tracer
}

func (b *tracedBackend) N() int { return b.inner.N() }
func (b *tracedBackend) M() int { return b.inner.M() }

func (b *tracedBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	start := time.Now()
	obj, sc, err := b.inner.Sorted(ctx, pred, rank)
	d := int64(time.Since(start))
	b.tr.sortedCalls.Add(1)
	b.tr.sortedNS.Add(d)
	if sp, ok := ctx.Value(spanKey{}).(*span); ok {
		sp.sortedCalls.Add(1)
		sp.sortedNS.Add(d)
	}
	return obj, sc, err
}

func (b *tracedBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	start := time.Now()
	sc, err := b.inner.Random(ctx, pred, obj)
	d := int64(time.Since(start))
	b.tr.randomCalls.Add(1)
	b.tr.randomNS.Add(d)
	if sp, ok := ctx.Value(spanKey{}).(*span); ok {
		sp.randomCalls.Add(1)
		sp.randomNS.Add(d)
	}
	return sc, err
}

type keyedBackend struct {
	*tracedBackend
	mk membershipKeyed
}

func (b *keyedBackend) MembershipKey() string { return b.mk.MembershipKey() }

// spanJSON is the written form of one span tree: the client span, its
// server child, the service's phases under it and the backend summary
// under the execute phase.
type spanJSON struct {
	ID      uint64          `json:"id"`
	Kind    string          `json:"kind"`
	Session int             `json:"session"`
	SQL     string          `json:"sql"`
	Client  [2]int64        `json:"client"`
	Server  [2]int64        `json:"server"`
	Phases  []obs.PhaseSpan `json:"phases,omitempty"`
	Backend *backendJSON    `json:"backend,omitempty"`
}

type backendJSON struct {
	SortedCalls int64 `json:"sortedCalls"`
	SortedNS    int64 `json:"sortedNS"`
	RandomCalls int64 `json:"randomCalls"`
	RandomNS    int64 `json:"randomNS"`
}

var kindNames = [...]string{kindQuery: "query", kindOpen: "open", kindPage: "page", kindClose: "close"}

// writeSpans writes the run's spans as JSON lines.
func writeSpans(path string, spans []*span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		j := spanJSON{
			ID: s.id, Kind: kindNames[s.kind], Session: s.session, SQL: s.sql,
			Client: [2]int64{s.clientStart.UnixNano(), s.clientEnd.UnixNano()},
			Server: [2]int64{s.serverStart.Load(), s.serverEnd.Load()},
		}
		if s.trace != nil {
			j.Phases = s.trace.Phases
		}
		if s.sortedCalls.Load()+s.randomCalls.Load() > 0 {
			j.Backend = &backendJSON{s.sortedCalls.Load(), s.sortedNS.Load(), s.randomCalls.Load(), s.randomNS.Load()}
		}
		if err := enc.Encode(j); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
