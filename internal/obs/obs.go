// Package obs is the middleware's observability layer: runtime metrics,
// per-query access traces, and a pluggable event stream.
//
// The paper's contribution is an access-cost ledger (Eq. 1); in a deployed
// middleware the same accounting must be visible while queries run, not
// only after. This package provides three pieces, all stdlib-only:
//
//   - Registry: a metrics registry of atomic counters, gauges, and
//     histograms with Prometheus text exposition (lock-free on the update
//     hot path; registration and exposition take a registry lock).
//   - Observer: the event interface the engine emits into — accesses
//     performed and refused, execution phases, optimizer estimator
//     evaluations, framework-loop progress, executor concurrency, and
//     web-source retries. Nop is the zero-allocation default; Multi fans
//     out to several observers.
//   - QueryTrace: an Observer that accumulates one query's events into a
//     JSON-serializable snapshot — the per-query analogue of the ledger,
//     returned by the HTTP service under ?trace=1.
//
// The package deliberately imports nothing from the engine so every layer
// (access, algo, opt, parallel, websim, service) can emit into it without
// cycles; access kinds and phases are mirrored here as their own types.
package obs

import "time"

// AccessKind mirrors the two access types of the paper's Section 3.2
// (access.Kind) without importing the access package.
type AccessKind uint8

const (
	// Sorted is sa_i: the next object of a predicate's descending list.
	Sorted AccessKind = iota
	// Random is ra_i(u): the exact score of one object on one predicate.
	Random
)

// String returns "sorted" or "random".
func (k AccessKind) String() string {
	if k == Sorted {
		return "sorted"
	}
	return "random"
}

// DenyReason classifies why a session refused (or failed) an access
// without billing it.
type DenyReason uint8

const (
	// DenyUnsupported: the scenario forbids this access kind on the predicate.
	DenyUnsupported DenyReason = iota
	// DenyExhausted: the sorted list is fully consumed.
	DenyExhausted
	// DenyWildGuess: random access to an unseen object under no-wild-guesses.
	DenyWildGuess
	// DenyRepeatedProbe: a second random access to the same (pred, obj).
	DenyRepeatedProbe
	// DenyBudget: the access would exceed the session's cost budget.
	DenyBudget
	// DenyCancelled: the run's context was cancelled or timed out.
	DenyCancelled
	// DenyBackend: the backend failed the access (transport or source error).
	DenyBackend
	// DenyBreaker: the capability's circuit breaker is open after repeated
	// source failures; the access was refused without touching the source.
	DenyBreaker
	// DenyContract: the contract guard rejected the source's response
	// (sorted-order violation, NaN score, duplicate id, or a random result
	// inconsistent with an earlier sorted sighting); the corrupt value was
	// discarded before it could reach the threshold math.
	DenyContract

	numDenyReasons = int(DenyContract) + 1
)

// String returns the reason's label as exposed in metrics and traces.
func (d DenyReason) String() string {
	switch d {
	case DenyUnsupported:
		return "unsupported"
	case DenyExhausted:
		return "exhausted"
	case DenyWildGuess:
		return "wild_guess"
	case DenyRepeatedProbe:
		return "repeated_probe"
	case DenyBudget:
		return "budget"
	case DenyCancelled:
		return "cancelled"
	case DenyBackend:
		return "backend"
	case DenyBreaker:
		return "breaker"
	case DenyContract:
		return "contract"
	default:
		return "unknown"
	}
}

// DenyReasons lists every reason, for observers that pre-register one
// metric per label value.
func DenyReasons() []DenyReason {
	return []DenyReason{
		DenyUnsupported, DenyExhausted, DenyWildGuess,
		DenyRepeatedProbe, DenyBudget, DenyCancelled, DenyBackend,
		DenyBreaker, DenyContract,
	}
}

// BreakerState mirrors the circuit-breaker states of the access layer's
// resilience machinery (access.BreakerState) without importing it.
type BreakerState uint8

const (
	// BreakerClosed: the capability is healthy; accesses flow through.
	BreakerClosed BreakerState = iota
	// BreakerOpen: consecutive failures tripped the circuit; the capability
	// is flipped off in the session's current scenario.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; one probe access is let
	// through to decide between closing and re-opening.
	BreakerHalfOpen
)

// String returns "closed", "open", or "half_open" as exposed in metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// Phase names one stage of a query execution.
type Phase string

const (
	// PhaseParse covers SQL parsing and column binding (service layer).
	PhaseParse Phase = "parse"
	// PhasePlan covers dataset projection, engine construction, and the
	// plan-cache lookup (service layer).
	PhasePlan Phase = "plan"
	// PhaseOptimize covers the cost-based SR/G configuration search.
	PhaseOptimize Phase = "optimize"
	// PhaseExecute covers the framework run itself.
	PhaseExecute Phase = "execute"
)

// Observer receives engine execution events. Implementations shared
// across concurrent queries (HTTP requests) must be safe for concurrent
// use; Nop, Registry-backed observers, and QueryTrace all are. Within one
// query, the concurrent executor (parallel.Executor, on either clock)
// emits every event from the goroutine running it.
//
// Every method must be cheap and non-blocking: events fire on the access
// hot path, and a stalled observer stalls the query.
type Observer interface {
	// AccessDone fires after each performed (billed) access.
	AccessDone(kind AccessKind, pred int, costUnits float64)
	// AccessDenied fires when an access is refused or fails; nothing was
	// billed for it.
	AccessDenied(kind AccessKind, pred int, reason DenyReason)
	// PhaseDone records a completed execution phase.
	PhaseDone(phase Phase, d time.Duration)
	// EstimatorEval fires per optimizer cost estimate; memoHit reports
	// whether the configuration was already priced (no simulation run).
	EstimatorEval(memoHit bool)
	// LoopIteration fires once per framework scheduling iteration with the
	// current candidate-queue size (the K_P working set).
	LoopIteration(candidates int)
	// InflightChange reports a concurrent executor starting (+1) or
	// finishing (-1) an access; the accesses still in flight when a run
	// ends are settled in one negative delta, so the sum returns to zero.
	InflightChange(delta int)
	// DispatchStall fires when a concurrent executor has free slots but no
	// dispatchable necessary access (it must wait for completions).
	DispatchStall()
	// SourceRetry fires before a web-source client backs off to retry a
	// failed request.
	SourceRetry(backoff time.Duration)
	// SourceFailure fires when a web-source request fails for good
	// (retries exhausted or non-retryable).
	SourceFailure()
	// PlanCache reports a plan-cache lookup outcome.
	PlanCache(hit bool)
	// PlanCacheEvict fires when the plan cache discards an entry, either
	// to make room (LRU capacity) or because its scenario fingerprint was
	// invalidated.
	PlanCacheEvict()
	// BreakerTransition fires when a capability's circuit breaker changes
	// state (open on consecutive failures, half-open after the cooldown,
	// closed on a successful probe).
	BreakerTransition(kind AccessKind, pred int, from, to BreakerState)
	// DegradedReplan fires when the engine re-plans around a degraded
	// scenario instead of failing: a faulted or breaker-refused access was
	// absorbed and the framework re-derived its choices. The reason is a
	// machine-readable label ("circuit_open", "source_failure", ...).
	DegradedReplan(reason string)
	// AdaptiveReplan fires when the divergence monitor swaps the plan
	// mid-query: the observed source behavior drifted past the checkpoint
	// threshold (trigger "divergence"), far enough to distrust the
	// estimator's sample entirely ("stale_sample"), or the cost scenario
	// itself changed ("scenario_change"). The divergence score that
	// triggered the swap rides along (ReplanTriggers lists the labels).
	AdaptiveReplan(trigger string, divergence float64)
	// ContractViolation fires when the contract guard rejects a source
	// response before it can corrupt the threshold math; reason is one of
	// ViolationReasons ("unsorted", "nan", "range", "dup", "inconsistent").
	ContractViolation(kind AccessKind, pred int, reason string)
	// RequestShed fires when the service refuses a query at admission
	// because the inflight cap is reached (load shedding).
	RequestShed()
}

// ReplanTriggers lists every AdaptiveReplan label, for observers that
// pre-register one metric per label value.
func ReplanTriggers() []string {
	return []string{"divergence", "stale_sample", "scenario_change"}
}

// ViolationReasons lists every ContractViolation label, for observers
// that pre-register one metric per label value.
func ViolationReasons() []string {
	return []string{"unsorted", "nan", "range", "dup", "inconsistent"}
}

// Nop is the zero-allocation no-op Observer: every method returns
// immediately. It is the default wherever an Observer is optional.
type Nop struct{}

// AccessDone implements Observer.
func (Nop) AccessDone(AccessKind, int, float64) {}

// AccessDenied implements Observer.
func (Nop) AccessDenied(AccessKind, int, DenyReason) {}

// PhaseDone implements Observer.
func (Nop) PhaseDone(Phase, time.Duration) {}

// EstimatorEval implements Observer.
func (Nop) EstimatorEval(bool) {}

// LoopIteration implements Observer.
func (Nop) LoopIteration(int) {}

// InflightChange implements Observer.
func (Nop) InflightChange(int) {}

// DispatchStall implements Observer.
func (Nop) DispatchStall() {}

// SourceRetry implements Observer.
func (Nop) SourceRetry(time.Duration) {}

// SourceFailure implements Observer.
func (Nop) SourceFailure() {}

// PlanCache implements Observer.
func (Nop) PlanCache(bool) {}

// PlanCacheEvict implements Observer.
func (Nop) PlanCacheEvict() {}

// BreakerTransition implements Observer.
func (Nop) BreakerTransition(AccessKind, int, BreakerState, BreakerState) {}

// DegradedReplan implements Observer.
func (Nop) DegradedReplan(string) {}

// AdaptiveReplan implements Observer.
func (Nop) AdaptiveReplan(string, float64) {}

// ContractViolation implements Observer.
func (Nop) ContractViolation(AccessKind, int, string) {}

// RequestShed implements Observer.
func (Nop) RequestShed() {}

var _ Observer = Nop{}

// multi fans every event out to each member in order.
type multi []Observer

func (m multi) AccessDone(k AccessKind, p int, c float64) {
	for _, o := range m {
		o.AccessDone(k, p, c)
	}
}
func (m multi) AccessDenied(k AccessKind, p int, r DenyReason) {
	for _, o := range m {
		o.AccessDenied(k, p, r)
	}
}
func (m multi) PhaseDone(ph Phase, d time.Duration) {
	for _, o := range m {
		o.PhaseDone(ph, d)
	}
}
func (m multi) EstimatorEval(hit bool) {
	for _, o := range m {
		o.EstimatorEval(hit)
	}
}
func (m multi) LoopIteration(n int) {
	for _, o := range m {
		o.LoopIteration(n)
	}
}
func (m multi) InflightChange(d int) {
	for _, o := range m {
		o.InflightChange(d)
	}
}
func (m multi) DispatchStall() {
	for _, o := range m {
		o.DispatchStall()
	}
}
func (m multi) SourceRetry(b time.Duration) {
	for _, o := range m {
		o.SourceRetry(b)
	}
}
func (m multi) SourceFailure() {
	for _, o := range m {
		o.SourceFailure()
	}
}
func (m multi) PlanCache(hit bool) {
	for _, o := range m {
		o.PlanCache(hit)
	}
}
func (m multi) PlanCacheEvict() {
	for _, o := range m {
		o.PlanCacheEvict()
	}
}
func (m multi) BreakerTransition(k AccessKind, p int, from, to BreakerState) {
	for _, o := range m {
		o.BreakerTransition(k, p, from, to)
	}
}
func (m multi) DegradedReplan(reason string) {
	for _, o := range m {
		o.DegradedReplan(reason)
	}
}
func (m multi) AdaptiveReplan(trigger string, divergence float64) {
	for _, o := range m {
		o.AdaptiveReplan(trigger, divergence)
	}
}
func (m multi) ContractViolation(k AccessKind, p int, reason string) {
	for _, o := range m {
		o.ContractViolation(k, p, reason)
	}
}
func (m multi) RequestShed() {
	for _, o := range m {
		o.RequestShed()
	}
}

// Multi combines observers into one that fans events out in argument
// order. Nil members are dropped; zero live members yield Nop.
func Multi(obs ...Observer) Observer {
	live := make(multi, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	default:
		return live
	}
}
