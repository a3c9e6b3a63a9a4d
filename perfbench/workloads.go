package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	topk "repro"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/websim"
)

// workload is one traffic mix against one deployment of the system.
type workload struct {
	name string
	// n and m size the generated database.
	n, m int
	// combos are the (class, template) shapes of one pass and weight how
	// many copies of each a pass holds (nil: cursorEvery copies each).
	combos []slotShape
	weight []int
	// build materializes the session for one slot of one pass.
	build func(w *workload, seed int64, pass, slot int, sh slotShape) session
	// deploy starts the system under test over the data generated from
	// the seed.
	deploy func(w *workload, env *env, seed int64) (*system, error)

	shapes    []slotShape
	shapeSeed int64
}

// pass returns the seed's permuted pass plan (computed once per seed).
func (w *workload) pass(seed int64) []slotShape {
	if w.shapes == nil || w.shapeSeed != seed {
		w.shapes = expandShapes(seed, w.combos, w.weight)
		w.shapeSeed = seed
	}
	return w.shapes
}

// passSize is the number of sessions in one pass.
func (w *workload) passSize(seed int64) int { return len(w.pass(seed)) }

// session returns the i-th session of the seed's request sequence.
func (w *workload) session(seed int64, i int) session {
	plan := w.pass(seed)
	pass, slot := i/len(plan), i%len(plan)
	return w.build(w, seed, pass, slot, plan[slot])
}

// warmupSession returns session i of the warm-up pass: every combination
// the workload lists once, with the warm-up's own fresh draws. It fills
// the plan cache with every fixed template and the deployment's caches
// with their working set.
func (w *workload) warmupSession(seed int64, i int) session {
	return w.build(w, seed, -1, i, w.combos[i])
}

// env is what a deployment needs from the harness.
type env struct {
	// workDir holds generated store directories (inside the checkout).
	workDir string
	// tr, when non-nil, is spliced into the deployment's public seams:
	// the service's WrapBackend, the HTTP handler, and each shard server.
	tr *tracer
	// cal, when set, prices a store deployment with this calibration
	// instead of the one measured during set-up (the traced run reuses
	// the untraced run's, so both price, plan and bill identically).
	cal *topk.StoreCalibration
}

// system is one running deployment: the service behind an http.Server
// on loopback, plus whatever backends it fronts.
type system struct {
	base    string
	handler *service.Handler
	scn     topk.Scenario // full-width scenario, for the cost check

	store   *topk.Store
	storeAt string
	cal     topk.StoreCalibration
	coord   *cluster.Coordinator

	// buildS/calibrateS time the store's write path and IO calibration.
	buildS, calibrateS float64

	servers []*runningServer
	httpc   *http.Client // the coordinator's shard client
}

// runningServer is an http.Server serving on a loopback listener; stop
// shuts it down and waits for its serve goroutine to return.
type runningServer struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func serve(h http.Handler) (*runningServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs := &runningServer{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ErrorLog:          log.New(io.Discard, "", 0),
		},
		done: make(chan struct{}),
		url:  "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(rs.done)
		_ = rs.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return rs, nil
}

func (rs *runningServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.srv.Shutdown(ctx); err != nil {
		_ = rs.srv.Close()
	}
	<-rs.done
}

// close stops every server (service first, then shards), the cursor
// reaper, the store, and removes the store directory.
func (s *system) close() {
	for i := len(s.servers) - 1; i >= 0; i-- {
		s.servers[i].stop()
	}
	if s.handler != nil {
		s.handler.Close()
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
	if s.store != nil {
		_ = s.store.Close()
	}
	if s.storeAt != "" {
		_ = os.RemoveAll(s.storeAt)
	}
}

// start builds the service handler over cfg and serves it (behind the
// tracer's handler wrapper when tracing).
func (s *system) start(cfg service.Config, e *env) error {
	cfg.Logger = log.New(io.Discard, "", 0)
	if e.tr != nil {
		cfg.WrapBackend = e.tr.wrapBackend
	}
	h, err := service.NewHandler(cfg)
	if err != nil {
		return err
	}
	s.handler = h
	var hh http.Handler = h
	if e.tr != nil {
		hh = e.tr.wrapHandler(h)
	}
	rs, err := serve(hh)
	if err != nil {
		return err
	}
	s.servers = append(s.servers, rs)
	s.base = rs.url
	return nil
}

// Query classes of mem-mixed.
const (
	classAvg = iota
	classMin
	classWsum
)

var kChoices = []int{10, 50}

// memMixed: the CPU-bound serving path over an in-memory dataset with
// the topkd defaults (unit costs, sharing off). A third of the sessions
// repeat fixed avg templates and a third fixed min templates (plan-cache
// hits after the first pass); the last third are weighted sums with
// fresh weights on every request (plan-cache misses, HClimb each time).
func memMixed() *workload {
	w := &workload{name: "mem-mixed", n: 5000, m: 4}
	subsets := columnSubsets(w.m, 2)
	for class := classAvg; class <= classWsum; class++ {
		for t := 0; t < len(subsets)*len(kChoices); t++ {
			w.combos = append(w.combos, slotShape{Class: class, Template: t})
		}
	}
	w.build = func(w *workload, seed int64, pass, slot int, sh slotShape) session {
		cols := subsets[sh.Template%len(subsets)]
		k := kChoices[sh.Template/len(subsets)]
		s := session{Slot: slot, Pass: pass, K: k, Cols: cols, Template: sh.Class*1000 + sh.Template}
		switch sh.Class {
		case classAvg:
			s.SQL, s.F = plainSQL("avg", cols, k), topk.Avg()
		case classMin:
			s.SQL, s.F = plainSQL("min", cols, k), topk.Min()
		default:
			s.SQL, s.F = wsumQuery(cols, freshWeights(newRNG(seed, pass, slot), len(cols)), k)
			s.Template = -1
		}
		if sh.Cursor {
			s.Pages = cursorPages
		}
		return s
	}
	w.deploy = func(w *workload, e *env, seed int64) (*system, error) {
		ds, err := generate(w, seed)
		if err != nil {
			return nil, err
		}
		s := &system{scn: topk.UniformScenario(w.m, 1, 1)}
		err = s.start(service.Config{Dataset: ds, Columns: columnNames(w.m), Scenario: s.scn}, e)
		return s, err
	}
	return w
}

// storeProbe: a disk store ten times larger than the block cache budget
// can hold, built fresh during set-up and priced by IO calibration with
// p4 probe-only. Two-predicate weighted sums with fresh weights miss the
// plan cache every time and scatter point reads over the score matrix.
func storeProbe() *workload {
	w := &workload{name: "store-probe", n: 1_000_000, m: 4}
	pairs := columnSubsets(w.m, 2)[:6]
	for t := 0; t < len(pairs)*len(kChoices); t++ {
		w.combos = append(w.combos, slotShape{Template: t})
	}
	w.build = func(w *workload, seed int64, pass, slot int, sh slotShape) session {
		cols := pairs[sh.Template%len(pairs)]
		k := kChoices[sh.Template/len(pairs)]
		s := session{Slot: slot, Pass: pass, K: k, Cols: cols, Template: -1}
		s.SQL, s.F = wsumQuery(cols, freshWeights(newRNG(seed, pass, slot), len(cols)), k)
		if sh.Cursor {
			s.Pages = cursorPages
		}
		return s
	}
	w.deploy = func(w *workload, e *env, seed int64) (*system, error) {
		s := &system{}
		dir, err := os.MkdirTemp(e.workDir, "store-")
		if err != nil {
			return nil, err
		}
		s.storeAt = dir
		t0 := time.Now()
		if err := topk.BuildStore(dir, "uniform", w.n, w.m, seed, topk.StoreWriterOptions{}); err != nil {
			return s, err
		}
		s.buildS = time.Since(t0).Seconds()
		if s.store, err = topk.OpenStore(dir, topk.StoreOptions{}); err != nil {
			return s, err
		}
		t0 = time.Now()
		cal, err := topk.MeasureStore(context.Background(), s.store, topk.StoreMeasureOptions{Seed: seed})
		if err != nil {
			return s, err
		}
		s.calibrateS = time.Since(t0).Seconds()
		if e.cal != nil {
			cal = *e.cal
		}
		s.cal = cal
		s.scn = probeOnlyLast(topk.CalibratedScenario(w.m, cal))
		err = s.start(service.Config{
			Store: s.store, StoreCalibration: cal, Columns: columnNames(w.m), Scenario: s.scn,
		}, e)
		return s, err
	}
	return w
}

// clusterShared: three websim shard servers on loopback behind a remote
// scatter-gather coordinator, with cross-query sharing on. 24 fixed
// avg/wsum templates with Zipf(1.2) popularity, so after warm-up the
// share layer absorbs almost every access.
func clusterShared() *workload {
	const shards, templates, oneShots = 3, 24, 96
	w := &workload{name: "cluster-shared", n: 20_000, m: 3}
	subsets := columnSubsets(w.m, 2)
	fixed := [][]float64{{0.7, 0.3, 0.5}, {0.2, 0.9, 0.4}}
	// A pass holds 96 one-shot queries with fixed Zipf(1.2) counts per
	// template, and one cursor per template: 120 sessions, one in five a
	// cursor. Cursors cycle through the templates so page latency averages
	// over all of them instead of following the most popular one.
	for t, copies := range zipfCopies(templates, oneShots, 1.2) {
		w.combos = append(w.combos, slotShape{Template: t})
		w.weight = append(w.weight, copies)
	}
	for t := 0; t < templates; t++ {
		w.combos = append(w.combos, slotShape{Template: t, Cursor: true})
		w.weight = append(w.weight, 1)
	}
	w.build = func(w *workload, seed int64, pass, slot int, sh slotShape) session {
		t := sh.Template
		cols := subsets[t%len(subsets)]
		fn := (t / len(subsets)) % 3
		k := kChoices[t/(len(subsets)*3)]
		s := session{Slot: slot, Pass: pass, K: k, Cols: cols, Template: t}
		if fn == 0 {
			s.SQL, s.F = plainSQL("avg", cols, k), topk.Avg()
		} else {
			s.SQL, s.F = wsumQuery(cols, fixed[fn-1][:len(cols)], k)
		}
		if sh.Cursor {
			s.Pages = cursorPages
		}
		return s
	}
	w.deploy = func(w *workload, e *env, seed int64) (*system, error) {
		ds, err := generate(w, seed)
		if err != nil {
			return nil, err
		}
		parts, err := cluster.Partition(ds, shards)
		if err != nil {
			return nil, err
		}
		s := &system{scn: probeOnlyLast(topk.UniformScenario(w.m, 1, 1))}
		s.httpc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     30 * time.Second,
		}}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var remote []cluster.Shard
		for _, sd := range parts {
			srv, err := websim.NewServer(sd.Local, websim.WithShardObjects(sd.Global, ds.N()))
			if err != nil {
				return s, err
			}
			var h http.Handler = srv
			if e.tr != nil {
				h = e.tr.wrapShard(srv)
			}
			rs, err := serve(h)
			if err != nil {
				return s, err
			}
			s.servers = append(s.servers, rs)
			rsh, err := cluster.DialShard(ctx, rs.url, w.m, s.httpc)
			if err != nil {
				return s, err
			}
			remote = append(remote, rsh)
		}
		if s.coord, err = cluster.New(remote, cluster.Options{}); err != nil {
			return s, err
		}
		err = s.start(service.Config{
			Cluster: s.coord, Columns: columnNames(w.m), Scenario: s.scn, EnableSharing: true,
		}, e)
		return s, err
	}
	return w
}

// generate builds the workload's database: uniform scores, n objects, m
// predicates, from the seed. The store deployment writes the same data
// through the streaming generator.
func generate(w *workload, seed int64) (*topk.Dataset, error) {
	return topk.GenerateDataset("uniform", w.n, w.m, seed)
}

// dataSeed derives the seed of deployment i's data: deployment 0 uses the
// workload seed itself, the others independent streams from it.
func dataSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return int64(mix64(uint64(seed)^mix64(uint64(i))) >> 1)
}

// probeOnlyLast makes the scenario's last predicate random-access only (a
// Figure-2 probe-only source).
func probeOnlyLast(scn topk.Scenario) topk.Scenario {
	scn.Preds = append([]topk.PredCost(nil), scn.Preds...)
	last := len(scn.Preds) - 1
	scn.Preds[last].SortedOK = false
	scn.Preds[last].Sorted = 0
	scn.Name += fmt.Sprintf(",p%d probe-only", last+1)
	return scn
}

// workloads lists the benchmark's workloads by name.
func workloads() map[string]func() *workload {
	return map[string]func() *workload{
		"mem-mixed":      memMixed,
		"store-probe":    storeProbe,
		"cluster-shared": clusterShared,
	}
}

// shareDiscountCap mirrors the sharing layer's discount cap: once both
// quantized discounts read it, they no longer move with the hit rates.
const shareDiscountCap = 0.9

// maxWarmups bounds the warm-up passes a set-up may run.
const maxWarmups = 32

// discountsSettled reports whether the sharing layer's cost discounts can
// no longer change the optimizer's plans: sharing is off, or both
// discounts sit at their cap. Before that, the discount a query is planned
// under depends on how many accesses the two clients happened to complete
// ahead of it, so plans and bills would follow the interleaving.
func discountsSettled(st topk.SharingStats) bool {
	if st.SortedHits+st.SortedMisses+st.RandomHits+st.RandomMisses == 0 {
		return true
	}
	sorted, random := st.Discounts()
	return sorted >= shareDiscountCap && random >= shareDiscountCap
}

// deployAndWarm starts a deployment over the data generated from
// dataSeed and runs the warm-up pass of the seed's schedule through the
// real HTTP path, repeating it until the sharing discounts have settled,
// so every timed request is planned the same way in every run. A warm-up
// request that fails aborts set-up.
func deployAndWarm(w *workload, e *env, seed, dataSeed int64) (*system, error) {
	s, err := w.deploy(w, e, dataSeed)
	if err != nil {
		if s != nil {
			s.close()
		}
		return nil, fmt.Errorf("set-up of %s: %v", w.name, err)
	}
	for i := 0; i == 0 || !discountsSettled(s.handler.ShareStats()); i++ {
		if i == maxWarmups {
			s.close()
			sorted, random := s.handler.ShareStats().Discounts()
			return nil, fmt.Errorf("set-up of %s: sharing discounts %.1f/%.1f did not reach %.1f in %d warm-up passes",
				w.name, sorted, random, shareDiscountCap, maxWarmups)
		}
		if warm := runPhase(w, seed, s.base, phaseSpec{warmup: true}, false); len(warm.reasons) > 0 {
			s.close()
			return nil, fmt.Errorf("set-up of %s: warm-up failed: %s", w.name, warm.reasons[0])
		}
	}
	return s, nil
}

// storeWorkDir is where store deployments write their directories,
// relative to the checkout the benchmark runs from.
const storeWorkDir = ".bench_build/perfbench"
