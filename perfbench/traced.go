package main

import (
	"fmt"
	"io"
	"runtime"

	topk "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// layerStats are the deployment's own counters, snapshotted around the
// traced phase.
type layerStats struct {
	store   topk.StoreStats
	share   topk.SharingStats
	cluster cluster.Stats
	tr      counters
}

func (s *system) layerStats(tr *tracer) layerStats {
	var ls layerStats
	if s.store != nil {
		ls.store = s.store.Stats()
	}
	ls.share = s.handler.ShareStats()
	if s.coord != nil {
		ls.cluster = s.coord.Stats()
	}
	ls.tr = tr.snapshot()
	return ls
}

// traced runs the schedule twice on two fresh deployments: untraced for
// the reference, then traced for exactly as many sessions. Both must bill
// identically session by session — proof that the tracing seams changed
// no execution path — and the traced run's answers are checked against
// the oracle. It reports per-layer metrics.
func traced(cfg config, w *workload, logw io.Writer) (*result, error) {
	sysA, err := deployAndWarm(w, &env{workDir: cfg.workDir}, cfg.seed, cfg.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	a := runPhase(w, cfg.seed, sysA.base, phaseSpec{seconds: cfg.seconds}, false)
	cal := sysA.cal
	sysA.close()
	fmt.Fprintf(logw, "perfbench: untraced phase: %d sessions in %.3fs\n", a.sessions, a.wall.Seconds())

	tr := &tracer{}
	spanIDs.reset()
	e := &env{workDir: cfg.workDir, tr: tr}
	if sysA.store != nil {
		e.cal = &cal
	}
	sysB, err := deployAndWarm(w, e, cfg.seed, cfg.seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := sysB.layerStats(tr)
	b := runPhase(w, cfg.seed, sysB.base, phaseSpec{sessions: a.sessions}, true)
	after := sysB.layerStats(tr)
	scn := sysB.scn
	sysB.close()
	fmt.Fprintf(logw, "perfbench: traced phase: %d sessions in %.3fs\n", b.sessions, b.wall.Seconds())

	r := &result{title: fmt.Sprintf("perfbench %s seed=%d traced: %d sessions untraced (%.2fs) then traced (%.2fs)",
		w.name, cfg.seed, a.sessions, a.wall.Seconds(), b.wall.Seconds())}
	r.Attempted = len(b.reqs)
	for _, q := range b.reqs {
		if !q.ok {
			r.Failed++
		}
	}
	o, err := newWorkloadOracle(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	bad, reasons := verify(w, cfg.seed, scn, o, b)
	r.Failed += bad
	r.notes = append(r.notes, append(b.reasons, reasons...)...)

	// Same sessions, same bills, same answers: the untraced run is
	// verified through the traced one.
	billedA, billedB := 0.0, 0.0
	diverged := 0
	for i := range b.recs {
		ra, rb := &a.recs[i], &b.recs[i]
		billedA += float64(ra.billedSorted + ra.billedRandom)
		billedB += float64(rb.billedSorted + rb.billedRandom)
		if ra.index != rb.index || ra.billedSorted != rb.billedSorted || ra.billedRandom != rb.billedRandom ||
			ra.items != rb.items || ra.failed {
			diverged++
			if diverged <= 3 {
				r.notes = append(r.notes, fmt.Sprintf("session %d: untraced bill %d+%d, traced %d+%d, answers equal=%v",
					ra.index, ra.billedSorted, ra.billedRandom, rb.billedSorted, rb.billedRandom, ra.items == rb.items))
			}
		}
	}
	r.Failed += diverged
	r.Correct = r.Failed == 0
	q := float64(len(b.recs))
	r.notes = append(r.notes, fmt.Sprintf("billed_accesses_per_query: untraced %.6g, traced %.6g (%d of %d sessions diverge)",
		billedA/q, billedB/q, diverged, len(b.recs)))

	layerMetrics(r, w, a, b, sysB, before, after)
	if err := writeSpans(spanPath(cfg.workDir, w.name, cfg.seed), b.spans); err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "spans written to "+spanPath(cfg.workDir, w.name, cfg.seed))
	return r, nil
}

// layerMetrics derives the per-layer metrics from the traced phase b (and
// the untraced reference a).
func layerMetrics(r *result, w *workload, a, b *phaseResult, sys *system, before, after layerStats) {
	queries := float64(len(b.recs))
	var (
		reqs, oneShot                         float64
		httpSelf, svcSelf, plan, parse, optim float64
		engSelf, accesses, evals, memo        float64
		iters, cands, lookups, hits           float64
		billedSorted, billedRandom            float64
	)
	for _, sp := range b.spans {
		reqs++
		httpSelf += float64(sp.clientDur() - sp.serverDur())
		if sp.trace != nil && (sp.kind == kindQuery || sp.kind == kindOpen) && sp.trace.PlanCacheHit != nil {
			lookups++
			if *sp.trace.PlanCacheHit {
				hits++
			}
		}
		if sp.kind != kindQuery || sp.trace == nil {
			continue
		}
		// One-shot queries report every phase, and their accesses run on
		// the request context, so the server span splits cleanly into
		// service self time, parse, plan, optimize and execute, and execute
		// into engine self time and backend time.
		oneShot++
		svcSelf += float64(sp.serverDur() - sp.phasesDur())
		plan += float64(sp.phase(obs.PhasePlan))
		parse += float64(sp.phase(obs.PhaseParse))
		optim += float64(sp.phase(obs.PhaseOptimize))
		engSelf += float64(int64(sp.phase(obs.PhaseExecute)) - sp.backendNS())
		for i := range sp.trace.SortedAccesses {
			accesses += float64(sp.trace.SortedAccesses[i])
		}
		for i := range sp.trace.RandomAccesses {
			accesses += float64(sp.trace.RandomAccesses[i])
		}
		evals += float64(sp.trace.EstimatorEvals)
		memo += float64(sp.trace.EstimatorMemoHits)
		iters += float64(sp.trace.Iterations)
		cands += float64(sp.trace.CandidatesHighWater)
	}
	for _, s := range b.recs {
		billedSorted += float64(s.billedSorted)
		billedRandom += float64(s.billedRandom)
	}
	const ms, us = 1e6, 1e3
	tr := after.tr.minus(before.tr)

	r.add("http.self_ms", "ms", ratio(httpSelf, reqs)/ms)
	r.add("service.self_ms", "ms", ratio(svcSelf, oneShot)/ms)
	r.add("service.plan_ms", "ms", ratio(plan, oneShot)/ms)
	r.add("sqlq.parse_us", "us", ratio(parse, oneShot)/us)
	r.add("opt.optimize_ms", "ms", ratio(optim, oneShot)/ms)
	r.add("opt.plan_cache_hit_ratio", "ratio", ratio(hits, lookups))
	r.add("opt.estimator_evals_per_query", "count", ratio(evals, oneShot))
	r.add("opt.estimator_memo_hit_ratio", "ratio", ratio(memo, memo+evals))
	r.add("engine.self_ms", "ms", ratio(engSelf, oneShot)/ms)
	r.add("engine.ns_per_access", "ns", ratio(engSelf, accesses))
	r.add("engine.iterations_per_query", "count", ratio(iters, oneShot))
	r.add("engine.candidates_high_water", "count", ratio(cands, oneShot))
	r.add("access.billed_sorted_per_query", "count", billedSorted/queries)
	r.add("access.billed_random_per_query", "count", billedRandom/queries)
	r.add("backend.calls_per_query", "count", float64(tr.sortedCalls+tr.randomCalls)/queries)
	r.add("backend.ns_per_sorted", "ns", ratio(float64(tr.sortedNS), float64(tr.sortedCalls)))
	r.add("backend.ns_per_random", "ns", ratio(float64(tr.randomNS), float64(tr.randomCalls)))

	st := topk.StoreStats{
		SortedReads: after.store.SortedReads - before.store.SortedReads,
		RandomReads: after.store.RandomReads - before.store.RandomReads,
		BlockReads:  after.store.BlockReads - before.store.BlockReads,
		BlockHits:   after.store.BlockHits - before.store.BlockHits,
	}
	r.add("store.build_s", "s", sys.buildS)
	r.add("store.calibrate_s", "s", sys.calibrateS)
	r.add("store.block_hit_ratio", "ratio", ratio(float64(st.BlockHits), float64(st.BlockHits+st.BlockReads)))
	r.add("store.block_reads_per_query", "count", float64(st.BlockReads)/queries)
	r.add("store.random_reads_per_query", "count", float64(st.RandomReads)/queries)
	crcs := 0.0
	if sys.store != nil {
		crcs = sys.cal.Ratio()
	}
	r.add("store.cr_over_cs", "ratio", crcs)

	sh := after.share
	sh.SortedHits -= before.share.SortedHits
	sh.SortedMisses -= before.share.SortedMisses
	sh.RandomHits -= before.share.RandomHits
	sh.RandomMisses -= before.share.RandomMisses
	sh.Coalesced -= before.share.Coalesced
	sh.BackendSorted -= before.share.BackendSorted
	sh.BackendRandom -= before.share.BackendRandom
	if sys.handler.Sharing() && sh.SortedHits+sh.SortedMisses == 0 {
		r.notes = append(r.notes, "share.sorted_hit_ratio reads 0: the traced phase made no sorted access")
	}
	r.add("share.sorted_hit_ratio", "ratio", ratio(float64(sh.SortedHits), float64(sh.SortedHits+sh.SortedMisses)))
	r.add("share.random_hit_ratio", "ratio", ratio(float64(sh.RandomHits), float64(sh.RandomHits+sh.RandomMisses)))
	r.add("share.backend_sorted_per_query", "count", float64(sh.BackendSorted)/queries)
	r.add("share.backend_random_per_query", "count", float64(sh.BackendRandom)/queries)
	r.add("share.coalesced_per_query", "count", float64(sh.Coalesced)/queries)

	cl := after.cluster
	mergeHits := float64(cl.MergeHits - before.cluster.MergeHits)
	merged := float64(cl.MergedRows - before.cluster.MergedRows)
	if sys.coord != nil && mergeHits+merged == 0 {
		r.notes = append(r.notes, "cluster.merge_hit_ratio and cluster.fetch_overshoot_ratio read 0: no sorted access reached the coordinator in the traced phase")
	}
	r.add("cluster.merge_hit_ratio", "ratio", ratio(mergeHits, mergeHits+merged))
	r.add("cluster.shard_fetches_per_query", "count", float64(cl.ShardFetches-before.cluster.ShardFetches)/queries)
	r.add("cluster.fetch_overshoot_ratio", "ratio", ratio(float64(cl.FetchedEntries-before.cluster.FetchedEntries), merged))
	r.add("cluster.random_routed_per_query", "count", float64(cl.RandomRouted-before.cluster.RandomRouted)/queries)

	if sys.coord != nil && tr.shardReqs == 0 {
		r.notes = append(r.notes, "cluster.shard_fetches_per_query, cluster.random_routed_per_query and websim.* read 0: the share caches absorbed every access of the traced phase, so no request reached a shard")
	}
	r.add("websim.requests_per_query", "count", float64(tr.shardReqs)/queries)
	r.add("websim.server_us_per_request", "us", ratio(float64(tr.shardNS), float64(tr.shardReqs))/us)

	r.add("runtime.gc_cycles_per_1k_requests", "count", ratio(float64(a.numGC)*1000, float64(len(a.reqs))))
	qpsA := float64(okCount(a)) / a.wall.Seconds()
	qpsB := float64(okCount(b)) / b.wall.Seconds()
	r.add("trace.overhead_ratio", "ratio", ratio(qpsB, qpsA))

	for _, why := range absentLayers(w, sys) {
		r.notes = append(r.notes, why)
	}
}

func okCount(ph *phaseResult) int {
	n := 0
	for _, q := range ph.reqs {
		if q.ok {
			n++
		}
	}
	return n
}

// absentLayers states which per-layer metrics read 0 on this workload
// because the layer is not part of its deployment.
func absentLayers(w *workload, sys *system) []string {
	var out []string
	if sys.store == nil {
		out = append(out, "store.* read 0: "+w.name+" serves no disk store")
	}
	if !sys.handler.Sharing() {
		out = append(out, "share.* read 0: "+w.name+" runs with sharing off")
	}
	if sys.coord == nil {
		out = append(out, "cluster.* and websim.* read 0: "+w.name+" has no shard cluster")
	}
	return out
}
