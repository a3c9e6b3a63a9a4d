package obs

import (
	"sync"
	"time"
)

// PhaseSpan is one completed execution phase of a query.
type PhaseSpan struct {
	Phase   Phase   `json:"phase"`
	Seconds float64 `json:"seconds"`
}

// TraceSnapshot is the JSON form of a query's accumulated trace: the
// per-query counterpart of the ledger, extended with everything the
// engine observed while producing it. The HTTP service returns it in the
// QueryResponse when the request asks for ?trace=1.
type TraceSnapshot struct {
	// Phases lists completed execution phases in completion order.
	Phases []PhaseSpan `json:"phases,omitempty"`
	// SortedAccesses and RandomAccesses count billed accesses per
	// predicate — they must sum exactly to the session ledger's ns_i/nr_i.
	SortedAccesses []int `json:"sortedAccesses"`
	RandomAccesses []int `json:"randomAccesses"`
	// CostUnits is the total billed access cost in cost units (Eq. 1).
	CostUnits float64 `json:"costUnits"`
	// Denied counts refused or failed accesses by reason (absent when none).
	Denied map[string]int `json:"denied,omitempty"`
	// EstimatorEvals counts optimizer simulation runs; EstimatorMemoHits
	// counts configurations priced from the estimator's memo instead.
	EstimatorEvals    int `json:"estimatorEvals,omitempty"`
	EstimatorMemoHits int `json:"estimatorMemoHits,omitempty"`
	// Iterations counts framework scheduling iterations;
	// CandidatesHighWater is the largest candidate queue (K_P working set)
	// seen during the run.
	Iterations          int `json:"iterations,omitempty"`
	CandidatesHighWater int `json:"candidatesHighWater,omitempty"`
	// InflightHighWater is the peak concurrent accesses of a parallel run;
	// DispatchStalls counts rounds where free slots had nothing to launch.
	InflightHighWater int `json:"inflightHighWater,omitempty"`
	DispatchStalls    int `json:"dispatchStalls,omitempty"`
	// SourceRetries/SourceFailures count web-source request retries and
	// terminal failures; BackoffSeconds is total retry sleep time.
	SourceRetries  int     `json:"sourceRetries,omitempty"`
	SourceFailures int     `json:"sourceFailures,omitempty"`
	BackoffSeconds float64 `json:"backoffSeconds,omitempty"`
	// PlanCacheHit reports the service plan-cache outcome (nil when no
	// lookup happened, e.g. direct engine use).
	PlanCacheHit *bool `json:"planCacheHit,omitempty"`
	// PlanCacheEvictions counts plan-cache entries discarded while this
	// query ran (LRU capacity or scenario invalidation).
	PlanCacheEvictions int `json:"planCacheEvictions,omitempty"`
	// BudgetExhausted reports that at least one access was refused because
	// the session's cost budget ran dry (the anytime cutoff).
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
	// BreakerTransitions lists circuit-breaker state changes during the
	// query, in occurrence order.
	BreakerTransitions []BreakerEvent `json:"breakerTransitions,omitempty"`
	// DegradedReplans counts how often the engine re-planned around a
	// degraded scenario instead of failing the query.
	DegradedReplans int `json:"degradedReplans,omitempty"`
	// DegradedReasons are the machine-readable degradation labels the
	// engine reported while re-planning (deduplicated, in first-seen order).
	DegradedReasons []string `json:"degradedReasons,omitempty"`
	// AdaptiveReplans lists mid-query plan swaps by the divergence monitor,
	// in occurrence order, each with the trigger and the divergence score
	// that crossed the threshold.
	AdaptiveReplans []ReplanEvent `json:"adaptiveReplans,omitempty"`
	// ContractViolations lists source responses the contract guard
	// rejected during this query, in occurrence order.
	ContractViolations []ContractEvent `json:"contractViolations,omitempty"`
	// Cursor identifies the server-side cursor a traced page belongs to
	// (nil for one-shot queries). The trace itself is cumulative across the
	// cursor's pages, exactly like its ledger.
	Cursor *CursorTrace `json:"cursor,omitempty"`
}

// CursorTrace is the cursor-identity block of a traced paged response: which
// cursor produced the page, how deep pagination has gone, and whether the
// underlying execution has run dry. The service fills it in — the engine's
// QueryTrace accumulates per-query events and does not know cursor identity.
type CursorTrace struct {
	ID        string `json:"id"`
	Page      int    `json:"page"`
	Emitted   int    `json:"emitted"`
	Exhausted bool   `json:"exhausted,omitempty"`
}

// ReplanEvent is one mid-query adaptive plan swap as recorded in a trace.
type ReplanEvent struct {
	Trigger    string  `json:"trigger"`
	Divergence float64 `json:"divergence"`
}

// ContractEvent is one guard-rejected source response as recorded in a
// trace.
type ContractEvent struct {
	Kind AccessKind `json:"-"`
	// KindName is the access kind ("sorted"/"random") in JSON form.
	KindName string `json:"kind"`
	Pred     int    `json:"pred"`
	Reason   string `json:"reason"`
}

// BreakerEvent is one circuit-breaker state change as recorded in a trace.
type BreakerEvent struct {
	Kind AccessKind `json:"-"`
	// KindName is the access kind ("sorted"/"random") in JSON form.
	KindName string `json:"kind"`
	Pred     int    `json:"pred"`
	From     string `json:"from"`
	To       string `json:"to"`
}

// QueryTrace is an Observer that accumulates one query's events. It is
// safe for concurrent use (the concurrent executor emits from the
// goroutine running it while web-source clients emit retries from request
// goroutines); a single short mutex guards all state.
type QueryTrace struct {
	mu sync.Mutex

	phases         []PhaseSpan
	sorted, random []int
	costUnits      float64
	denied         [numDenyReasons]int

	estimatorEvals, memoHits int
	iterations, candidatesHW int

	inflight, inflightHW int
	stalls               int

	retries, failures int
	backoff           time.Duration

	planCacheHit    bool
	planCacheLooked bool
	planEvictions   int

	breakerEvents   []BreakerEvent
	degradedReplans int
	degradedReasons []string

	replanEvents   []ReplanEvent
	contractEvents []ContractEvent
}

// NewQueryTrace returns an empty trace. Per-predicate slices grow on
// demand, so one trace works for any predicate count.
func NewQueryTrace() *QueryTrace { return &QueryTrace{} }

var _ Observer = (*QueryTrace)(nil)

func growTo(s []int, i int) []int {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// AccessDone implements Observer.
func (t *QueryTrace) AccessDone(kind AccessKind, pred int, costUnits float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if kind == Sorted {
		t.sorted = growTo(t.sorted, pred)
		t.sorted[pred]++
	} else {
		t.random = growTo(t.random, pred)
		t.random[pred]++
	}
	t.costUnits += costUnits
}

// AccessDenied implements Observer.
func (t *QueryTrace) AccessDenied(kind AccessKind, pred int, reason DenyReason) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(reason) < numDenyReasons {
		t.denied[reason]++
	}
	// Keep the per-predicate slices wide enough that a trace of a refused-
	// only predicate still reports it with zero billed accesses.
	t.sorted = growTo(t.sorted, pred)
	t.random = growTo(t.random, pred)
}

// PhaseDone implements Observer.
func (t *QueryTrace) PhaseDone(phase Phase, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phases = append(t.phases, PhaseSpan{Phase: phase, Seconds: d.Seconds()})
}

// EstimatorEval implements Observer.
func (t *QueryTrace) EstimatorEval(memoHit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if memoHit {
		t.memoHits++
	} else {
		t.estimatorEvals++
	}
}

// LoopIteration implements Observer.
func (t *QueryTrace) LoopIteration(candidates int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.iterations++
	if candidates > t.candidatesHW {
		t.candidatesHW = candidates
	}
}

// InflightChange implements Observer.
func (t *QueryTrace) InflightChange(delta int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight += delta
	if t.inflight > t.inflightHW {
		t.inflightHW = t.inflight
	}
}

// DispatchStall implements Observer.
func (t *QueryTrace) DispatchStall() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stalls++
}

// SourceRetry implements Observer.
func (t *QueryTrace) SourceRetry(backoff time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retries++
	t.backoff += backoff
}

// SourceFailure implements Observer.
func (t *QueryTrace) SourceFailure() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failures++
}

// PlanCache implements Observer.
func (t *QueryTrace) PlanCache(hit bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.planCacheLooked = true
	t.planCacheHit = hit
}

// PlanCacheEvict implements Observer.
func (t *QueryTrace) PlanCacheEvict() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.planEvictions++
}

// BreakerTransition implements Observer.
func (t *QueryTrace) BreakerTransition(kind AccessKind, pred int, from, to BreakerState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.breakerEvents = append(t.breakerEvents, BreakerEvent{
		Kind: kind, KindName: kind.String(), Pred: pred,
		From: from.String(), To: to.String(),
	})
}

// DegradedReplan implements Observer.
func (t *QueryTrace) DegradedReplan(reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.degradedReplans++
	for _, r := range t.degradedReasons {
		if r == reason {
			return
		}
	}
	t.degradedReasons = append(t.degradedReasons, reason)
}

// AdaptiveReplan implements Observer.
func (t *QueryTrace) AdaptiveReplan(trigger string, divergence float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.replanEvents = append(t.replanEvents, ReplanEvent{Trigger: trigger, Divergence: divergence})
}

// ContractViolation implements Observer.
func (t *QueryTrace) ContractViolation(kind AccessKind, pred int, reason string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.contractEvents = append(t.contractEvents, ContractEvent{
		Kind: kind, KindName: kind.String(), Pred: pred, Reason: reason,
	})
}

// RequestShed implements Observer. Shed requests never execute, so a
// per-query trace cannot observe one; the event only feeds metrics.
func (t *QueryTrace) RequestShed() {}

// Snapshot returns a consistent copy of everything accumulated so far.
func (t *QueryTrace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		Phases:              append([]PhaseSpan(nil), t.phases...),
		SortedAccesses:      append([]int{}, t.sorted...),
		RandomAccesses:      append([]int{}, t.random...),
		CostUnits:           t.costUnits,
		EstimatorEvals:      t.estimatorEvals,
		EstimatorMemoHits:   t.memoHits,
		Iterations:          t.iterations,
		CandidatesHighWater: t.candidatesHW,
		InflightHighWater:   t.inflightHW,
		DispatchStalls:      t.stalls,
		SourceRetries:       t.retries,
		SourceFailures:      t.failures,
		BackoffSeconds:      t.backoff.Seconds(),
		PlanCacheEvictions:  t.planEvictions,
		BudgetExhausted:     t.denied[DenyBudget] > 0,
		BreakerTransitions:  append([]BreakerEvent(nil), t.breakerEvents...),
		DegradedReplans:     t.degradedReplans,
		DegradedReasons:     append([]string(nil), t.degradedReasons...),
		AdaptiveReplans:     append([]ReplanEvent(nil), t.replanEvents...),
		ContractViolations:  append([]ContractEvent(nil), t.contractEvents...),
	}
	for reason, n := range t.denied {
		if n > 0 {
			if s.Denied == nil {
				s.Denied = make(map[string]int)
			}
			s.Denied[DenyReason(reason).String()] = n
		}
	}
	if t.planCacheLooked {
		hit := t.planCacheHit
		s.PlanCacheHit = &hit
	}
	return s
}
