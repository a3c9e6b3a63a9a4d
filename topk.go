// Package topk is a cost-based top-k query middleware for Web-style
// sources, reproducing Hwang & Chang's "Optimizing Access Cost for Top-k
// Queries over Web Sources: A Unified Cost-based Approach" (ICDE 2005).
//
// A top-k query (F, k) ranks objects by a monotone scoring function F of
// per-predicate scores that must be gathered from sources through sorted
// and random accesses, each with its own cost. This package's Engine
// optimizes and executes such queries with Framework NC — a dynamic,
// cost-based search over middleware algorithms that unifies and
// generalizes FA, TA, CA, NRA, MPro, Upper, and the Combine family, all of
// which are also available as named baselines.
//
// Quickstart:
//
//	ds, _ := topk.GenerateDataset("uniform", 1000, 2, 42)
//	eng, _ := topk.NewEngine(topk.DataBackend(ds), topk.UniformScenario(2, 1, 10))
//	ans, _ := eng.Run(topk.Query{F: topk.Min(), K: 5})
//	for _, it := range ans.Items {
//	    fmt.Println(it.Obj, it.Score)
//	}
//	fmt.Println("total access cost:", ans.TotalCost())
//
// See examples/ for end-to-end scenarios (including querying live HTTP
// sources via internal/websim) and cmd/topkbench for the experiment
// harness regenerating the paper's evaluation.
package topk

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/adapt"
	"repro/internal/algo"
	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/parallel"
	"repro/internal/score"
	"repro/internal/share"
)

// Re-exported core types. The facade aliases the internal packages' types
// so callers never import repro/internal/... directly.
type (
	// ScoreFunc is a monotone scoring function over predicate scores.
	ScoreFunc = score.Func
	// Dataset is an immutable in-memory database of predicate scores.
	Dataset = data.Dataset
	// Scenario describes per-predicate access capabilities and unit costs.
	Scenario = access.Scenario
	// PredCost is one predicate's capability/cost entry of a Scenario.
	PredCost = access.PredCost
	// CostShift is a dynamic mid-query cost change.
	CostShift = access.CostShift
	// Cost is a fixed-point access cost.
	Cost = access.Cost
	// Ledger summarizes accesses performed and cost accrued.
	Ledger = access.Ledger
	// Item is one ranked answer.
	Item = algo.Item
	// Backend supplies raw access results (in-memory or HTTP).
	Backend = access.Backend
	// Plan is an optimizer-chosen SR/G configuration.
	Plan = opt.Plan
	// OptimizerConfig tunes the cost-based optimizer.
	OptimizerConfig = opt.Config
	// PlanCache memoizes optimizer plans across queries with LRU bounds
	// and singleflight dedup (see WithPlanCache).
	PlanCache = opt.PlanCache
	// PlanCacheStats reports plan-cache hits, misses, and evictions.
	PlanCacheStats = opt.CacheStats
	// Observer receives engine execution events (see WithObserver).
	Observer = obs.Observer
	// TraceSnapshot is a per-query execution trace (see WithTrace).
	TraceSnapshot = obs.TraceSnapshot
	// MetricsRegistry is a metrics registry with Prometheus exposition.
	MetricsRegistry = obs.Registry
	// BreakerSet is a shared set of per-capability circuit breakers (see
	// WithResilience).
	BreakerSet = access.BreakerSet
	// BreakerConfig tunes circuit-breaker thresholds and cooldowns.
	BreakerConfig = access.BreakerConfig
	// Resilience attaches circuit breakers and per-access deadlines to a
	// run (see WithResilience).
	Resilience = access.Resilience
	// SharedAccess is the cross-query access-sharing layer: shared sorted
	// cursors, a score cache, and batched random access over any Backend
	// (see WithSharing).
	SharedAccess = share.Layer
	// SharingOptions tunes a SharedAccess layer.
	SharingOptions = share.Options
	// SharingStats snapshots a sharing layer's effectiveness.
	SharingStats = share.Stats
	// BatchBackend is the capability a backend advertises to receive
	// coalesced random accesses (the websim client implements it).
	BatchBackend = share.BatchBackend
)

// Observability constructors, re-exported so callers wire metrics without
// importing repro/internal/obs.
var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewMetricsObserver registers the engine metric set on a registry and
	// returns the observer feeding it (pass to WithObserver).
	NewMetricsObserver = obs.NewMetrics
	// MultiObserver fans events out to several observers.
	MultiObserver = obs.Multi
	// NewBreakerSet builds a closed circuit-breaker set for m predicates,
	// to be shared across runs via WithResilience.
	NewBreakerSet = access.NewBreakerSet
	// NewPlanCache builds a bounded optimizer plan cache (capacity <= 0
	// selects the default), to be shared across engines via WithPlanCache.
	NewPlanCache = opt.NewPlanCache
	// NewSharedAccess builds a cross-query sharing layer over a backend,
	// to be attached to engines via WithSharing (or viewed per projection
	// with its View method).
	NewSharedAccess = share.New
)

// Scoring-function constructors.
var (
	// Min returns the minimum scoring function (Query Q1's "min").
	Min = score.Min
	// Max returns the maximum scoring function.
	Max = score.Max
	// Avg returns the arithmetic mean (Query Q2's "avg").
	Avg = score.Avg
	// Product returns the product function.
	Product = score.Product
	// Geometric returns the geometric mean.
	Geometric = score.Geometric
	// Weighted returns a weighted sum with the given weights.
	Weighted = score.Weighted
	// Median returns the lower-median order statistic.
	Median = score.Median
	// OrderStatistic returns the j-th-largest scoring function.
	OrderStatistic = score.OrderStatistic
	// ScoreByName resolves "min", "max", "avg", "product", "geomean",
	// "median".
	ScoreByName = score.ByName
)

// UniformScenario builds a scenario with identical sorted cost cs and
// random cost cr on all m predicates.
func UniformScenario(m int, cs, cr float64) Scenario { return access.Uniform(m, cs, cr) }

// CostFromUnits converts float units (e.g. seconds) to a Cost. It
// rejects negative and non-finite values.
func CostFromUnits(u float64) (Cost, error) { return access.CostFromUnits(u) }

// CostOf converts float units to a Cost for scenario literals. Invalid
// values yield a negative sentinel that Scenario.Validate rejects, so
// mistakes surface at engine construction rather than silently.
func CostOf(u float64) Cost { return access.CostOf(u) }

// GenerateDataset synthesizes a dataset from a named distribution:
// "uniform", "gaussian", "skewed", "correlated", or "anticorrelated".
func GenerateDataset(dist string, n, m int, seed int64) (*Dataset, error) {
	d, err := data.DistributionByName(dist)
	if err != nil {
		return nil, err
	}
	return data.Generate(d, n, m, seed)
}

// DataBackend wraps an in-memory dataset as a Backend.
func DataBackend(ds *Dataset) Backend { return access.DatasetBackend{DS: ds} }

// Query is one top-k request.
type Query struct {
	F ScoreFunc
	K int
}

// Answer is a completed execution.
type Answer struct {
	// Items are the top-k, best first. Exact is false when the algorithm
	// (e.g. NRA) proves the set without learning exact scores.
	Items []Item
	// Ledger records the accesses performed and the total cost (Eq. 1).
	Ledger Ledger
	// Plan is the optimizer's chosen configuration, when one was used.
	Plan *Plan
	// Elapsed is the simulated elapsed time in cost units for parallel
	// runs (zero for sequential runs, where elapsed equals the cost).
	Elapsed float64
	// Wall is the measured wall-clock time of live (WithLive) runs.
	Wall time.Duration
	// Truncated reports that a WithBudget run exhausted its budget — or a
	// WithResilience run degraded — before proving the answer; Items then
	// holds best-effort candidates.
	Truncated bool
	// Degraded lists machine-readable reasons a WithResilience answer is
	// best-effort rather than exact ("circuit_open:sa:p1",
	// "query_deadline", "no_legal_plan", ...). Empty for exact answers.
	Degraded []string
	// Trace is the per-query execution trace (nil unless WithTrace):
	// phase timings, per-predicate access counts matching the Ledger,
	// refused accesses, and optimizer/executor statistics.
	Trace *TraceSnapshot
}

// TotalCost returns the run's total access cost.
func (a *Answer) TotalCost() Cost { return a.Ledger.TotalCost }

// Engine executes top-k queries against a backend under a cost scenario.
// An Engine is reusable and safe for concurrent queries: each query draws
// its access session and framework scratch from the engine's pool, reset
// before reuse, and returns them when it completes (or its Cursor closes).
type Engine struct {
	backend   Backend
	scn       Scenario
	nwg       bool
	shifts    []CostShift
	planCache *PlanCache
	share     *share.Layer
	guard     *adapt.Guard
	// storageKey fingerprints a disk store and its IO calibration into
	// the plan-cache key (see WithStore).
	storageKey string
	guardOpts  []GuardOption
	useGuard   bool

	// pool recycles per-query state (access session + framework scratch)
	// across sequential Runs. Pooled state is fully reset before reuse;
	// nothing in an Answer aliases it.
	pool sync.Pool // of *queryState
}

// queryState is the per-query allocation unit the engine recycles.
type queryState struct {
	sess    *access.Session
	scratch algo.Scratch //topklint:allow resetcomplete re-prepared from the plan by every open before use
	// cur is Run's cursor: Run never hands it out, so it lives in the
	// pooled state like the scratch's own algo cursor.
	cur Cursor //topklint:allow resetcomplete overwritten whole by every open before use
}

// Reset restores recycled state for a new query: the session re-arms its
// budget and bookkeeping under the new options. The scratch and cursor
// need no work here — every open re-prepares them before use.
func (st *queryState) Reset(sessOpts []access.Option) error {
	return st.sess.Reset(sessOpts...)
}

// acquire returns a reset pooled query state, or builds a fresh one.
//
//topklint:hotpath
func (e *Engine) acquire(sessOpts []access.Option) (*queryState, error) {
	if st, ok := e.pool.Get().(*queryState); ok {
		if err := st.Reset(sessOpts); err != nil {
			// A failed Reset means bad options, not corrupt state; the
			// state stays recyclable because the next Get resets again.
			e.pool.Put(st)
			return nil, err
		}
		return st, nil
	}
	//topklint:allow hotpathalloc first-use miss: the fresh state is built once, then recycled
	sess, err := access.NewSession(e.backend, e.scn, sessOpts...)
	if err != nil {
		return nil, err
	}
	//topklint:allow hotpathalloc first-use miss: the fresh state is built once, then recycled
	return &queryState{sess: sess}, nil
}

// shareDiscounts applies the attached sharing layer's observed (quantized)
// hit rates as the optimizer's cost discounts — shared accesses never
// reach the sources, so plans should not price them at full cost.
// Explicit discounts in cfg win.
func (e *Engine) shareDiscounts(cfg OptimizerConfig) OptimizerConfig {
	if e.share != nil && cfg.SortedDiscount == 0 && cfg.RandomDiscount == 0 {
		cfg.SortedDiscount, cfg.RandomDiscount = e.share.Stats().Discounts()
	}
	return cfg
}

// optimize resolves a plan through the attached cache, or directly, under
// the sharing discounts (see shareDiscounts).
func (e *Engine) optimize(cfg OptimizerConfig, scn Scenario, f ScoreFunc, k, n int) (Plan, error) {
	cfg = e.shareDiscounts(cfg)
	if cfg.ClusterKey == "" {
		cfg.ClusterKey = clusterKeyOf(e.backend)
	}
	if cfg.StorageKey == "" {
		cfg.StorageKey = e.storageKey
	}
	if e.planCache != nil {
		return e.planCache.Get(cfg, scn, f, k, n)
	}
	return opt.Optimize(cfg, scn, f, k, n)
}

// membershipKeyed is the capability a distributed backend (the cluster
// coordinator, or a view of it) advertises to fingerprint its live shard
// membership.
type membershipKeyed interface{ MembershipKey() string }

// clusterKeyOf probes the backend — unwrapping the guard and sharing
// layers the engine may have stacked over it — for a cluster membership
// fingerprint to fold into the plan-cache key. Single-node backends key
// empty, at the cost of a few type assertions per optimization.
func clusterKeyOf(b Backend) string {
	for b != nil {
		if mk, ok := b.(membershipKeyed); ok {
			return mk.MembershipKey()
		}
		switch w := b.(type) {
		case *share.Layer:
			b = w.Backend()
		case *share.View:
			b = w.Layer().Backend()
		case *adapt.Guard:
			b = w.Backend()
		default:
			return ""
		}
	}
	return ""
}

// newAdapter wires the adaptive layer's re-plan loop to this engine:
// checkpoint re-plans start from the run's completed optimizer config and
// go through optimize — so they get the sharing discounts and hit the plan
// cache under the observation-extended key — the scenario-change probe
// watches the live session, and apply installs each new plan on the
// running execution (nil apply: telemetry only).
func (e *Engine) newAdapter(spec *runSpec, sess *access.Session, q Query, initial *Plan, apply func(Plan) error) *adapt.Adapter {
	lastPreds := sess.CurrentScenario().Preds
	a := &adapt.Adapter{
		Mon:  adapt.NewMonitor(adapt.Config{Period: spec.period}),
		Base: spec.optCfg,
		PlanFunc: func(cfg OptimizerConfig) (Plan, error) {
			return e.optimize(cfg, sess.CurrentScenario(), q.F, q.K, sess.N())
		},
		// EstimateFunc prices the incumbent plan under the re-plan's
		// observation-warped model (same discounts as PlanFunc) so the
		// adapter only swaps plans whose modelled advantage clears the
		// switching cost.
		EstimateFunc: func(cfg OptimizerConfig, h []float64, omega []int) (access.Cost, error) {
			return opt.EstimateConfiguration(e.shareDiscounts(cfg), sess.CurrentScenario(), q.F, q.K, sess.N(), h, omega)
		},
		ApplyFunc: apply,
		Obs:       spec.observer,
		Scenario:  sess.CurrentScenario,
		ScenarioChanged: func() bool {
			if sess.CurrentPredsEqual(lastPreds) {
				return false
			}
			lastPreds = sess.CurrentScenario().Preds
			return true
		},
	}
	if initial != nil {
		a.Incumbent = *initial
	}
	return a
}

// SharingStats reports the attached sharing layer's cumulative counters
// (the zero Stats when no layer is attached).
func (e *Engine) SharingStats() SharingStats {
	if e.share == nil {
		return SharingStats{}
	}
	return e.share.Stats()
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithoutNoWildGuesses lifts the rule that random access requires the
// object to have been seen by a sorted access first.
func WithoutNoWildGuesses() EngineOption { return func(e *Engine) { e.nwg = false } }

// WithCostShifts installs dynamic mid-query cost changes (for adaptivity
// studies; each Run replays them afresh).
func WithCostShifts(shifts ...CostShift) EngineOption {
	return func(e *Engine) { e.shifts = append(e.shifts, shifts...) }
}

// WithSharing routes the engine's accesses through a cross-query sharing
// layer: sorted accesses hit its shared per-predicate cursors, random
// accesses its score cache, and — when the layer's wrapped backend
// supports batching — cache misses coalesce into batched round trips.
// The layer must wrap a backend over the same predicate space as the
// engine's (typically the very backend passed to NewEngine); it replaces
// that backend for every Run. Share one layer across engines (and
// services) to amortize accesses across all their queries; per-query
// ledgers are unaffected, sharing only reduces the accesses that reach
// the sources. The optimizer's expected costs are discounted by the
// layer's observed hit rates (see OptimizerConfig.SortedDiscount).
func WithSharing(l *SharedAccess) EngineOption {
	return func(e *Engine) {
		e.backend = l
		e.share = l
	}
}

// WithPlanCache attaches a plan cache: Runs that would invoke the
// cost-based optimizer first consult it, keyed by the full planning
// problem (current scenario capabilities and costs, scoring function, k,
// n, optimizer config). Identical queries then share one optimization —
// including concurrent ones, which dedup to a single search. A cache may
// be shared across engines. Runs against a breaker-degraded scenario key
// differently, so degradation invalidates cached plans automatically.
func WithPlanCache(c *PlanCache) EngineOption {
	return func(e *Engine) { e.planCache = c }
}

// GuardOption tunes the source contract guard (see WithContractGuard).
type GuardOption = adapt.GuardOption

// Contract-guard tuning options, usable with WithContractGuard:
// GuardClampRange serves finite out-of-[0,1] scores clamped (counted as
// soft violations) instead of failing the access; GuardFailFast poisons a
// sorted stream on its first violation instead of letting the resilience
// breaker quarantine a persistent liar.
var (
	GuardClampRange = adapt.WithClampRange
	GuardFailFast   = adapt.WithFailFast
)

// WithContractGuard wraps the engine's backend (after all other engine
// options, so it also covers a sharing layer) with the source contract
// guard: every response is vetted — descending sorted order, finite
// scores in [0,1], distinct ids per stream, random results consistent with
// sorted sightings — before it can reach any session. Violating accesses
// fail without being billed; under WithResilience the breakers quarantine
// a persistently lying capability exactly like a failing one, so answers
// degrade honestly (Truncated + Degraded) instead of going silently wrong.
// GuardViolations reports the cumulative counts.
func WithContractGuard(opts ...GuardOption) EngineOption {
	return func(e *Engine) {
		e.useGuard = true
		e.guardOpts = append(e.guardOpts, opts...)
	}
}

// NewEngine validates the scenario against the backend and builds an
// engine.
func NewEngine(b Backend, scn Scenario, opts ...EngineOption) (*Engine, error) {
	if b == nil {
		return nil, fmt.Errorf("topk: engine requires a backend")
	}
	e := &Engine{backend: b, scn: scn, nwg: true}
	for _, o := range opts {
		o(e)
	}
	// The guard wraps last so it vets whatever the engine will actually
	// talk to — including a sharing layer installed by WithSharing.
	if e.useGuard {
		e.guard = adapt.NewGuard(e.backend, e.guardOpts...)
		e.backend = e.guard
	}
	// Validate after options: WithSharing may have replaced the backend,
	// and the scenario must match whatever the engine will actually run
	// against.
	if err := scn.Validate(e.backend.M()); err != nil {
		return nil, err
	}
	return e, nil
}

// GuardViolations reports the contract guard's cumulative per-reason
// violation counts (nil without WithContractGuard). Reason keys are the
// obs.ViolationReasons vocabulary: "unsorted", "nan", "range", "dup",
// "inconsistent".
func (e *Engine) GuardViolations() map[string]int {
	if e.guard == nil {
		return nil
	}
	return e.guard.Violations()
}

// runSpec captures the execution strategy chosen through RunOptions.
type runSpec struct {
	algorithm   algo.Algorithm // nil = NC, optimized or fixed by WithNC
	algErr      error          // WithAlgorithm's unknown-name error
	h           []float64      // fixed NC configuration
	omega       []int
	optCfg      OptimizerConfig
	adaptive    bool
	period      int
	parallelB   int
	liveB       int
	epsilon     float64
	budgetUnits float64
	hasBudget   bool
	budget      access.Cost // budgetUnits, converted by check
	ctx         context.Context
	observer    obs.Observer
	trace       bool
	tr          *obs.QueryTrace // the WithTrace sink, set by newSpec
	resilience  *access.Resilience
}

// newSpec applies the run options and decides their legality (check),
// then resolves the run's single observer: the user observer combined with
// the trace when requested, nil when nothing is watching so the default
// path pays no instrumentation. The optimizer config is completed with the
// engine's NWG rule and that observer once, so the plan step, checkpoint
// re-plans and page-boundary re-plans all start from it.
func (e *Engine) newSpec(opts []RunOption, cursor bool) (runSpec, error) {
	var r runSpec
	for _, o := range opts {
		o(&r)
	}
	if err := r.check(cursor); err != nil {
		return r, err
	}
	if r.trace {
		r.tr = obs.NewQueryTrace()
		if r.observer == nil {
			r.observer = r.tr
		} else {
			r.observer = obs.Multi(r.observer, r.tr)
		}
	}
	r.optCfg.DisableNWG = !e.nwg
	r.optCfg.Observer = r.observer
	return r, nil
}

// check is the one option rule set shared by Run and Open.
// A resumable execution — NC (optimized or WithNC), TA, MPro — accepts
// exactly the same combinations under Run and Open. With cursor set it
// also rejects the batch-only modes, which only Run executes: WithParallel,
// WithLive, and the named baselines without a resumable form.
func (r *runSpec) check(cursor bool) error {
	concurrent := r.parallelB > 0 || r.liveB > 0
	switch {
	case r.algErr != nil:
		return r.algErr
	case r.epsilon < 0:
		return fmt.Errorf("topk: approximation epsilon must be >= 0, got %g", r.epsilon)
	case r.epsilon > 0 && (r.algorithm != nil || concurrent):
		return fmt.Errorf("topk: WithApproximation applies only to sequential NC execution")
	case r.parallelB > 0 && r.liveB > 0:
		return fmt.Errorf("topk: WithLive and WithParallel are mutually exclusive")
	case concurrent && r.algorithm != nil:
		return fmt.Errorf("topk: WithParallel and WithLive cannot run named baseline algorithms")
	case concurrent && r.adaptive:
		return fmt.Errorf("topk: WithParallel and WithLive cannot be combined with WithAdaptive")
	case cursor && concurrent:
		return fmt.Errorf("topk: WithParallel and WithLive are batch-only; Open supports sequential execution")
	case cursor && !resumable(r.algorithm):
		return fmt.Errorf("topk: Open supports NC, TA, and MPro; %s is batch-only", r.algorithm.Name())
	case r.hasBudget && r.budgetUnits <= 0:
		return fmt.Errorf("topk: budget must be positive, got %g", r.budgetUnits)
	}
	if r.hasBudget {
		budget, err := access.CostFromUnits(r.budgetUnits)
		if err != nil {
			return fmt.Errorf("topk: budget: %w", err)
		}
		r.budget = budget
	}
	return nil
}

// resumable reports whether an algorithm runs as a cursor: NC (nil), TA,
// and MPro.
func resumable(a algo.Algorithm) bool {
	switch a.(type) {
	case nil, algo.TA, algo.MPro:
		return true
	}
	return false
}

func (r *runSpec) context() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// executed reports the execute phase that began at start.
func (r *runSpec) executed(start time.Time) {
	if r.observer != nil {
		r.observer.PhaseDone(obs.PhaseExecute, time.Since(start))
	}
}

// snapshot returns the trace's current snapshot, nil without a trace.
func snapshot(tr *obs.QueryTrace) *TraceSnapshot {
	if tr == nil {
		return nil
	}
	snap := tr.Snapshot()
	return &snap
}

// RunOption selects how a query is executed.
type RunOption func(*runSpec)

// WithAlgorithm runs a named baseline: "FA", "TA", "CA", "NRA", "MPro",
// "Upper", "Quick-Combine", or "Stream-Combine". TA and MPro are resumable
// (Run and Open); the others are batch-only and run under Run alone.
func WithAlgorithm(name string) RunOption {
	return func(r *runSpec) { r.algorithm, r.algErr = algo.ByName(name) }
}

// WithNC runs Framework NC with a fixed SR/G configuration: depths h (one
// per predicate, in score space) and probe schedule omega (nil = index
// order), bypassing the optimizer.
func WithNC(h []float64, omega []int) RunOption {
	return func(r *runSpec) { r.h, r.omega = h, omega }
}

// WithOptimizer customizes the cost-based optimizer used by the default
// execution mode.
func WithOptimizer(cfg OptimizerConfig) RunOption {
	return func(r *runSpec) { r.optCfg = cfg }
}

// WithAdaptive makes the execution self-correcting: every period accesses
// (period <= 0 takes the adaptive layer's default) a checkpoint compares
// each source's observed behaviour — sorted-stream descent slopes,
// random-access score means, the unseen-object frontier — against the
// plan's statistical assumptions, and past a divergence threshold the
// query re-plans mid-flight: the optimizer re-runs with the quantized
// observations folded into its sample (and into the plan-cache key, so
// repeat re-plans are cache hits), and the new SR/G configuration swaps in
// while all paid-for score state carries over. When the divergence is
// extreme the estimator's sample is flagged stale and the re-plan routes
// to the statistics-free greedy planner instead. Scenario changes (cost
// shifts, breaker flips) also trigger checkpoint re-plans, subsuming the
// earlier costs-only adaptivity. Applies to NC-based execution, under Run
// and Open alike, and composes with WithApproximation; on TA and MPro the
// monitor attaches telemetry-only (their configuration is not planned).
// The other named baselines run without it; WithParallel and WithLive
// reject it.
func WithAdaptive(period int) RunOption {
	return func(r *runSpec) { r.adaptive, r.period = true, period }
}

// WithParallel executes on the concurrent executor's simulated clock with
// at most b concurrent accesses; the answer's Elapsed field reports the
// simulated time. Combines with WithNC or the optimizer (the chosen plan's
// selector drives dispatch). Batch-only: Run accepts it, Open rejects it;
// not compatible with named baselines, WithAdaptive, WithApproximation, or
// WithLive.
func WithParallel(b int) RunOption {
	return func(r *runSpec) { r.parallelB = b }
}

// WithLive executes on the concurrent executor's wall clock: real
// concurrent backend requests (goroutines) bounded by b — for engines
// whose backend is a live source such as the HTTP web-source client. The
// answer's Wall field reports measured time. Every request is billed by
// the same session as a sequential run, so WithBudget, WithResilience and
// engine cost shifts apply, and Run returns only after every request it
// issued has landed. Batch-only: Run accepts it, Open rejects it; not
// compatible with named baselines, WithAdaptive, WithApproximation, or
// WithParallel.
func WithLive(b int) RunOption {
	return func(r *runSpec) { r.liveB = b }
}

// WithBudget caps the run's total access cost (in cost units). Sequential
// NC-based execution turns anytime: when the budget runs out the answer
// holds the best current candidates and Truncated is set. Named baselines
// and the concurrent executors (WithParallel, WithLive) are not anytime
// and fail with a budget-exhausted error instead; under WithLive the
// cost of requests in flight counts against the cap, so the bill never
// exceeds it.
func WithBudget(units float64) RunOption {
	return func(r *runSpec) { r.budgetUnits, r.hasBudget = units, true }
}

// WithContext bounds the run with a context: cancelling it aborts the
// execution and any in-flight backend requests. The default is
// context.Background().
func WithContext(ctx context.Context) RunOption {
	return func(r *runSpec) { r.ctx = ctx }
}

// WithObserver streams the run's execution events — accesses performed
// and refused, phase timings, optimizer estimator evaluations, framework
// iterations, executor concurrency — into the observer. Combine with a
// registry-backed observer (NewMetricsObserver) for service metrics.
// Without WithObserver or WithTrace the engine emits nothing and pays no
// instrumentation cost.
func WithObserver(o Observer) RunOption {
	return func(r *runSpec) { r.observer = o }
}

// WithTrace records a per-query execution trace, returned in the
// Answer's Trace field: the production analogue of the session's access
// ledger, extended with phase timings and engine statistics. Composes
// with WithObserver (both sinks receive every event).
func WithTrace() RunOption {
	return func(r *runSpec) { r.trace = true }
}

// WithResilience makes the run fault-tolerant: backend failures are
// absorbed instead of failing the query, consecutive failures open the
// attached circuit breakers (flipping the capability off in the current
// scenario, so the framework re-plans against the degraded scenario), and
// each access is bounded by the attachment's AccessTimeout. When
// degradation leaves no way to prove the exact answer, the run returns the
// best current candidates with Truncated set and the reasons in the
// Answer's Degraded field — the same anytime contract as WithBudget.
// Share one BreakerSet across runs so breaker state carries across
// queries. The concurrent executors (WithParallel, WithLive) honour the
// breakers and the per-access deadline but do not degrade: they fail on
// the first failed or refused access.
func WithResilience(r *Resilience) RunOption {
	return func(spec *runSpec) { spec.resilience = r }
}

// WithApproximation relaxes the query to (1+epsilon)-approximation: every
// returned object u is guaranteed (1+epsilon)*F(u) >= F(v) for every
// object v left out, usually at a fraction of the exact cost.
// Approximately-emitted items carry Exact=false and their final lower
// bound as Score. Applies to sequential NC-based execution (default,
// WithNC, with or without WithAdaptive), under Run and Open alike; named
// baselines and the concurrent executors reject it.
func WithApproximation(epsilon float64) RunOption {
	return func(r *runSpec) { r.epsilon = epsilon }
}

// Run executes a query. By default it runs the full cost-based pipeline:
// optimize an SR/G configuration for this engine's scenario (HClimb over a
// dummy sample unless configured otherwise), then execute Framework NC
// with it. Every resumable execution (NC, TA, MPro) is literally Open,
// Next(q.K), Close — the answer is the cursor's first page — so Run and
// Open accept the same options. Only the batch-only modes run outside the
// cursor: the other named baselines, WithParallel, and WithLive.
func (e *Engine) Run(q Query, opts ...RunOption) (*Answer, error) {
	spec, err := e.newSpec(opts, false)
	if err != nil {
		return nil, err
	}
	if spec.parallelB > 0 || spec.liveB > 0 || !resumable(spec.algorithm) {
		return e.runBatch(q, &spec)
	}
	c, err := e.open(q, &spec, true)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	res, err := c.next(q.K)
	spec.executed(c.execStart)
	if err != nil {
		return nil, err
	}
	return &Answer{Items: res.Items, Ledger: res.Ledger, Plan: c.plan, Truncated: res.Truncated,
		Degraded: res.Degraded, Trace: snapshot(c.tr)}, nil
}

// runBatch executes the batch-only modes over the same begin and plan
// steps as the cursor pipeline: the concurrent executor — on its simulated
// clock for WithParallel, its wall clock for WithLive — and the named
// baselines without a resumable form.
func (e *Engine) runBatch(q Query, spec *runSpec) (*Answer, error) {
	st, prob, err := e.begin(q, spec)
	if err != nil {
		return nil, err
	}
	defer e.pool.Put(st)
	ans := &Answer{}
	if spec.parallelB > 0 || spec.liveB > 0 {
		sel, plan, err := e.plan(q, spec, st.sess.CurrentScenario(), st.sess.N())
		if err != nil {
			return nil, err
		}
		ex := &parallel.Executor{B: spec.parallelB, Sel: sel, Obs: spec.observer}
		run := ex.Run
		if spec.liveB > 0 {
			ex.B, run = spec.liveB, ex.RunLive
		}
		start := time.Now()
		res, err := run(spec.context(), prob)
		spec.executed(start)
		if err != nil {
			return nil, err
		}
		ans.Items, ans.Ledger, ans.Elapsed, ans.Wall, ans.Plan = res.Items, res.Ledger, res.Elapsed, res.Wall, plan
	} else {
		start := time.Now()
		res, err := spec.algorithm.Run(prob)
		spec.executed(start)
		if err != nil {
			return nil, err
		}
		ans.Items, ans.Ledger, ans.Truncated, ans.Degraded = res.Items, res.Ledger, res.Truncated, res.Degraded
	}
	ans.Trace = snapshot(spec.tr)
	return ans, nil
}

// begin starts a session-based query: it assembles the session options,
// acquires the pooled queryState and builds the problem over its session.
// The caller returns the state to the pool.
func (e *Engine) begin(q Query, spec *runSpec) (*queryState, *algo.Problem, error) {
	var sessOpts []access.Option
	if !e.nwg {
		sessOpts = append(sessOpts, access.WithoutNoWildGuesses())
	}
	if len(e.shifts) > 0 {
		sessOpts = append(sessOpts, access.WithShifts(e.shifts...))
	}
	if spec.resilience != nil {
		sessOpts = append(sessOpts, access.WithResilience(spec.resilience))
	}
	if spec.hasBudget {
		sessOpts = append(sessOpts, access.WithBudget(spec.budget))
	}
	if spec.ctx != nil {
		sessOpts = append(sessOpts, access.WithContext(spec.ctx))
	}
	if spec.observer != nil {
		sessOpts = append(sessOpts, access.WithObserver(spec.observer))
	}
	st, err := e.acquire(sessOpts)
	if err != nil {
		return nil, nil, err
	}
	prob, err := algo.NewProblem(q.F, q.K, st.sess)
	if err != nil {
		e.pool.Put(st)
		return nil, nil, err
	}
	return st, prob, nil
}

// plan is the query's one plan step: it resolves the SR/G selector from
// WithNC's fixed configuration, or else optimizes one for scenario scn —
// timed as PhaseOptimize — and returns the plan with it (nil under
// WithNC). Checkpoint and page-boundary re-plans call optimize directly:
// they are not phases of the query.
func (e *Engine) plan(q Query, spec *runSpec, scn Scenario, n int) (*algo.SRG, *Plan, error) {
	if spec.h != nil {
		sel, err := algo.NewSRG(spec.h, spec.omega)
		return sel, nil, err
	}
	start := time.Now()
	p, err := e.optimize(spec.optCfg, scn, q.F, q.K, n)
	if spec.observer != nil {
		spec.observer.PhaseDone(obs.PhaseOptimize, time.Since(start))
	}
	if err != nil {
		return nil, nil, err
	}
	sel, err := algo.NewSRG(p.H, p.Omega)
	return sel, &p, err
}

// ErrCursorClosed reports a page request on a closed cursor.
var ErrCursorClosed = algo.ErrCursorClosed

// Page is one batch of answers from a resumable Cursor.
type Page struct {
	// Items are the page's new answers, best first — only the answers this
	// Next/NextUntil call proved, never earlier pages'.
	Items []Item
	// Ledger is the cursor's cumulative access ledger: successive pages
	// show monotone cost, and the final page's ledger is byte-identical to
	// a fresh run of the total depth.
	Ledger Ledger
	// Truncated reports the cursor degraded to anytime draining (budget
	// exhausted, or resilience ran out of legal plans); sticky across
	// pages.
	Truncated bool
	// Degraded lists machine-readable reasons a truncated page is
	// best-effort ("circuit_open:sa:p1", "query_deadline", ...).
	Degraded []string
	// Exhausted reports every object has been emitted; further pages are
	// empty and access-free.
	Exhausted bool
	// Plan is the SR/G configuration in force while this page was
	// produced (nil under WithNC or named algorithms). Re-planning on a
	// scenario change between pages replaces it.
	Plan *Plan
}

// Cursor is a suspended query execution: the per-query score state —
// table, candidate queue, access session ledger — stays alive between
// pages, so deepening k -> k+delta resumes exactly where the last page
// stopped and never re-pays for accesses already performed. Cursors draw
// their state from the engine's pool; Close returns it. A Cursor is safe
// for serialized use from multiple goroutines (an internal mutex orders
// pages) but pages cannot be produced concurrently.
type Cursor struct {
	mu    sync.Mutex
	eng   *Engine
	pager algo.Pager
	nc    *algo.Cursor // non-nil for NC-shaped cursors (score-range, re-planning)
	sess  *access.Session
	st    *queryState
	q     Query

	// Re-planning state: when the plan came from the optimizer, a scenario
	// change between pages (breaker flips, cost shifts) re-optimizes
	// against the current scenario — through the plan cache, which keys on
	// the scenario and so re-keys automatically.
	planned bool
	planScn []PredCost
	optCfg  OptimizerConfig // completed by newSpec
	plan    *Plan

	obsv   Observer
	tr     *obs.QueryTrace
	closed bool
	// execStart ends the plan step (set only when observed): Run's
	// PhaseExecute spans the execution's set-up and its one page.
	execStart time.Time
}

// Open suspends a query as a resumable cursor: the first Next(k) performs
// exactly the accesses Run with K=k would, and each further Next(delta)
// deepens to k+delta at only the marginal cost. The query's K sizes the
// optimizer's plan (how deep the configuration expects to go); paging may
// run past it. Open accepts exactly the options Run accepts for a
// resumable execution — NC (default or WithNC, with WithOptimizer,
// WithAdaptive and WithApproximation), WithAlgorithm("TA") and ("MPro"),
// WithBudget, WithResilience, WithObserver, WithTrace, and WithContext
// (rebind per page with Bind) — and rejects the batch-only modes:
// WithParallel, WithLive, and the other named baselines.
func (e *Engine) Open(q Query, opts ...RunOption) (*Cursor, error) {
	spec, err := e.newSpec(opts, true)
	if err != nil {
		return nil, err
	}
	return e.open(q, &spec, false)
}

// open is the one sequential query pipeline behind Run and Open: begin,
// the plan step, and the resumable execution suspended before its first
// access. pooled places the cursor inside the pooled query state — Run's
// private cursor — instead of allocating one to hand out.
func (e *Engine) open(q Query, spec *runSpec, pooled bool) (*Cursor, error) {
	st, prob, err := e.begin(q, spec)
	if err != nil {
		return nil, err
	}
	c := &st.cur
	if !pooled {
		c = new(Cursor)
	}
	// planScn's buffer survives in pooled cursors.
	*c = Cursor{eng: e, sess: st.sess, st: st, q: q, planScn: c.planScn[:0], optCfg: spec.optCfg, obsv: spec.observer, tr: spec.tr}
	if err := c.start(prob, spec); err != nil {
		e.pool.Put(st)
		return nil, err
	}
	return c, nil
}

// start plans the query (NC only) and opens the algorithm's pager.
func (c *Cursor) start(prob *algo.Problem, spec *runSpec) error {
	e, sess := c.eng, c.sess
	var sel *algo.SRG
	if spec.algorithm == nil {
		var scn Scenario // planned against; WithNC plans nothing
		if spec.h == nil {
			scn = sess.CurrentScenario()
		}
		var err error
		if sel, c.plan, err = e.plan(c.q, spec, scn, sess.N()); err != nil {
			return err
		}
		c.planned = c.plan != nil
		c.planScn = append(c.planScn, scn.Preds...)
	}
	if c.obsv != nil {
		c.execStart = time.Now()
	}
	switch alg := spec.algorithm.(type) {
	case nil:
		nc := &algo.NC{Sel: sel, Epsilon: spec.epsilon, Obs: c.obsv}
		cur, err := nc.Open(prob, &c.st.scratch)
		if err != nil {
			return err
		}
		c.nc, c.pager = cur, cur
		if spec.adaptive {
			// Checkpoint re-plans swap the suspended cursor's selector in
			// place (all paid-for state carries over) and re-anchor the
			// page-boundary scenario snapshot so one change is not
			// re-planned twice.
			nc.Monitor = e.newAdapter(spec, sess, c.q, c.plan, func(p Plan) error {
				s2, err := algo.NewSRG(p.H, p.Omega)
				if err != nil {
					return err
				}
				if err := cur.SetSelector(s2); err != nil {
					return err
				}
				c.plan = &p
				c.planScn = append(c.planScn[:0], sess.CurrentScenario().Preds...)
				return nil
			})
		}
	case algo.TA:
		cur, err := alg.Open(prob)
		if err != nil {
			return err
		}
		c.pager = cur
		if spec.adaptive {
			// TA has no plan degrees of freedom: the monitor attaches
			// telemetry-only (divergence checkpoints, no re-plans).
			cur.Monitor = e.newAdapter(spec, sess, c.q, nil, nil)
		}
	case algo.MPro:
		if spec.adaptive {
			// MPro's configuration is derived from the scenario, not
			// planned: telemetry-only, like TA.
			alg.Monitor = e.newAdapter(spec, sess, c.q, nil, nil)
		}
		cur, err := alg.Open(prob, &c.st.scratch)
		if err != nil {
			return err
		}
		c.nc, c.pager = cur, cur
	}
	return nil
}

// Next deepens the query by delta answers: the cursor resumes where the
// previous page stopped and performs only the accesses needed to prove
// the next delta. A page shorter than delta means exhaustion or (with
// Truncated set) a degraded anytime fill. If the access scenario changed
// since the last page — a breaker flipped mid- or between pages — an
// optimizer-planned cursor first re-plans against the current scenario on
// the preserved state.
func (c *Cursor) Next(delta int) (*Page, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.page(c.next(delta))
}

// next produces one ordinal page as the algorithm's Result: Next wraps it
// as a Page, Run as an Answer.
func (c *Cursor) next(delta int) (*algo.Result, error) {
	if c.closed {
		return nil, algo.ErrCursorClosed
	}
	c.replan()
	return c.pager.Next(delta)
}

// NextUntil is score-range paging: it emits every remaining answer
// provably scoring at least tau, best first, and suspends — without
// consuming the boundary candidate — once no remaining object can reach
// tau. Ordinal paging (Next) and further NextUntil calls with lower
// thresholds continue from exactly that point. Only NC-shaped cursors
// (default, WithNC, MPro) support it.
func (c *Cursor) NextUntil(tau float64) (*Page, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, algo.ErrCursorClosed
	}
	if c.nc == nil {
		return nil, fmt.Errorf("topk: score-range paging requires an NC-based cursor (default, WithNC, or MPro)")
	}
	c.replan()
	return c.page(c.nc.NextUntil(tau))
}

// replan re-optimizes the SR/G configuration when the access scenario
// changed since the plan was made (the mid-query scenario-change
// machinery, applied at page boundaries). The preserved score state stays
// valid — which access to perform next is pure policy — so the cursor
// continues under the new plan without repeating work. A scenario that can
// no longer be planned keeps the old selector; the framework's own
// degradation absorbs it.
func (c *Cursor) replan() {
	if c.nc == nil || !c.planned || c.sess.CurrentPredsEqual(c.planScn) {
		return
	}
	cur := c.sess.CurrentScenario()
	c.planScn = append(c.planScn[:0], cur.Preds...)
	plan, err := c.eng.optimize(c.optCfg, cur, c.q.F, c.q.K, c.sess.N())
	if err != nil {
		return
	}
	if sel, serr := algo.NewSRG(plan.H, plan.Omega); serr == nil && c.nc.SetSelector(sel) == nil {
		c.plan = &plan
		if c.obsv != nil {
			c.obsv.DegradedReplan("scenario_change")
		}
	}
}

// page assembles the public Page from an algo page.
func (c *Cursor) page(res *algo.Result, err error) (*Page, error) {
	if err != nil {
		return nil, err
	}
	return &Page{
		Items:     res.Items,
		Ledger:    res.Ledger,
		Truncated: res.Truncated,
		Degraded:  res.Degraded,
		Exhausted: c.pager.Exhausted(),
		Plan:      c.plan,
	}, nil
}

// Bind re-points the cursor's context for subsequent pages: each page of
// a server-side cursor gets its own deadline while the session — and the
// paid-for state behind it — survives between requests. Nil resets to
// context.Background().
func (c *Cursor) Bind(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.sess.Bind(ctx)
}

// Emitted reports the total answers produced across all pages.
func (c *Cursor) Emitted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pager.Emitted()
}

// Exhausted reports whether every object has been emitted.
func (c *Cursor) Exhausted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pager.Exhausted()
}

// Cost reports the access cost accrued so far.
func (c *Cursor) Cost() Cost { return c.Ledger().TotalCost }

// Ledger snapshots the cumulative accesses performed so far.
func (c *Cursor) Ledger() Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Ledger{}
	}
	return c.pager.Ledger()
}

// Plan returns the SR/G configuration currently in force (nil under
// WithNC or named algorithms).
func (c *Cursor) Plan() *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan
}

// Trace snapshots the cursor's cumulative execution trace (nil unless
// opened with WithTrace). Successive snapshots grow with each page; the
// access counts always match the cumulative Ledger.
func (c *Cursor) Trace() *TraceSnapshot { return snapshot(c.tr) }

// Close ends the execution and returns the cursor's pooled state (session
// and framework scratch) to the engine. Idempotent; pages after Close fail
// with algo.ErrCursorClosed.
func (c *Cursor) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.pager.Close()
	e, st := c.eng, c.st
	c.st = nil
	c.mu.Unlock()
	// Repool only after unlocking: Run's cursor lives inside st, so once
	// st is back in the pool another query may reuse this very Cursor.
	e.pool.Put(st)
	return nil
}

// Explain runs the cost-based optimizer for a query without executing it:
// the query-planning API. It returns the chosen SR/G configuration and its
// estimated total access cost under the engine's scenario. No source
// access is performed (the estimator works on samples).
func (e *Engine) Explain(q Query, cfg OptimizerConfig) (Plan, error) {
	if err := score.Validate(q.F, e.scn.M()); err != nil {
		return Plan{}, err
	}
	if q.K <= 0 {
		return Plan{}, fmt.Errorf("topk: retrieval size must be positive, got %d", q.K)
	}
	cfg.DisableNWG = !e.nwg
	return opt.Optimize(cfg, e.scn, q.F, q.K, e.backend.N())
}

// TopKOracle computes the exact answer by brute force over a dataset —
// free of access costs, for verification and testing.
func TopKOracle(ds *Dataset, f ScoreFunc, k int) []Item {
	ranked := ds.TopK(f.Eval, k)
	items := make([]Item, len(ranked))
	for i, r := range ranked {
		items[i] = Item{Obj: r.Obj, Score: r.Score, Exact: true}
	}
	return items
}
