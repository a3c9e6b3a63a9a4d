package topk

import (
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/algo"
)

func TestEngineLiveRun(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	ans, err := eng.Run(Query{F: Min(), K: 5}, WithLive(4))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans.Items)
	if ans.Wall <= 0 {
		t.Error("live run should report wall time")
	}
	if ans.Plan == nil {
		t.Error("live default pipeline should record the plan")
	}
	// With a fixed configuration, no plan is recorded.
	ans2, err := eng.Run(Query{F: Min(), K: 5}, WithLive(4), WithNC([]float64{0.5, 0.5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	scoresMatchOracle(t, ds, Min(), 5, ans2.Items)
	if ans2.Plan != nil {
		t.Error("fixed-config live run should not optimize")
	}
}

func TestEngineLiveRejectsIncompatibleOptions(t *testing.T) {
	ds := exampleDataset(t)
	eng, _ := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if _, err := eng.Run(Query{F: Min(), K: 2}, WithLive(2), WithAlgorithm("TA")); err == nil {
		t.Error("live + baseline should fail")
	}
	if _, err := eng.Run(Query{F: Min(), K: 2}, WithLive(2), WithAdaptive(5)); err == nil {
		t.Error("live + adaptive should fail")
	}
	if _, err := eng.Run(Query{F: Min(), K: 2}, WithLive(2), WithParallel(2)); err == nil {
		t.Error("live + parallel should fail")
	}
	shifted, _ := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1),
		WithCostShifts(CostShift{AfterAccesses: 5, Pred: 0, RandomFactor: 2}))
	if _, err := shifted.Run(Query{F: Min(), K: 2}, WithLive(2)); err == nil {
		t.Error("live + cost shifts should fail")
	}
}

func TestEngineApproximation(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0, 0}, nil))
	if err != nil {
		t.Fatal(err)
	}
	approx, err := eng.Run(Query{F: Avg(), K: 10}, WithNC([]float64{0, 0}, nil), WithApproximation(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if approx.TotalCost() > exact.TotalCost() {
		t.Errorf("approximate cost %v exceeds exact %v", approx.TotalCost(), exact.TotalCost())
	}
	// Guarantee: (1+eps)*F(returned) >= F(anything else).
	returned := make(map[int]bool)
	worst := 2.0
	for _, it := range approx.Items {
		returned[it.Obj] = true
		if truth := Avg().Eval(ds.Scores(it.Obj)); truth < worst {
			worst = truth
		}
	}
	for u := 0; u < ds.N(); u++ {
		if returned[u] {
			continue
		}
		if truth := Avg().Eval(ds.Scores(u)); 1.3*worst < truth-1e-9 {
			t.Fatalf("approximation guarantee violated: %g vs %g", worst, truth)
		}
	}
	// Validation.
	if _, err := eng.Run(Query{F: Avg(), K: 2}, WithApproximation(-1)); err == nil {
		t.Error("negative epsilon should fail")
	}
	if _, err := eng.Run(Query{F: Avg(), K: 2}, WithApproximation(0.1), WithAlgorithm("TA")); err == nil {
		t.Error("approximation + baseline should fail")
	}
	if _, err := eng.Run(Query{F: Avg(), K: 2}, WithApproximation(0.1), WithParallel(2)); err == nil {
		t.Error("approximation + parallel should fail")
	}
}

func TestEngineExplain(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Explain(Query{F: Min(), K: 5}, OptimizerConfig{Grid: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.H) != 2 || plan.EstimatedCost <= 0 || plan.Evals == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	// Explain must not touch the sources: executing the explained plan
	// afterwards costs exactly what a fresh run does.
	a, err := eng.Run(Query{F: Min(), K: 5}, WithNC(plan.H, plan.Omega))
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(Query{F: Min(), K: 5}, WithNC(plan.H, plan.Omega))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost() != b.TotalCost() {
		t.Error("Explain leaked state into the engine")
	}
	if _, err := eng.Explain(Query{F: Min(), K: 0}, OptimizerConfig{}); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := eng.Explain(Query{F: Weighted(1, 2, 3), K: 2}, OptimizerConfig{}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestEngineOpenCursor(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := eng.Open(Query{F: Min(), K: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, err := cur.Next(4)
	if err != nil || len(first.Items) != 4 {
		t.Fatalf("first page: %v %v", first, err)
	}
	more, err := cur.Next(4)
	if err != nil || len(more.Items) != 4 {
		t.Fatalf("second page: %v %v", more, err)
	}
	scoresMatchOracle(t, ds, Min(), 8, append(append([]Item(nil), first.Items...), more.Items...))
	if cur.Cost() <= 0 || cur.Ledger().TotalAccesses() == 0 {
		t.Error("cursor accounting empty")
	}
	if cur.Plan() == nil || first.Plan == nil {
		t.Error("optimizer-planned cursor should expose its plan")
	}
	if cur.Emitted() != 8 {
		t.Errorf("Emitted = %d, want 8", cur.Emitted())
	}
	// TA is resumable through the facade; other baselines stay batch-only.
	ta, err := eng.Open(Query{F: Min(), K: 2}, WithAlgorithm("TA"))
	if err != nil {
		t.Fatalf("cursor + TA should work: %v", err)
	}
	if page, err := ta.Next(2); err != nil || len(page.Items) != 2 {
		t.Fatalf("TA cursor page: %v %v", page, err)
	}
	if _, err := ta.NextUntil(0.5); err == nil {
		t.Error("TA cursor should refuse score-range paging")
	}
	ta.Close()
	if _, err := eng.Open(Query{F: Min(), K: 2}, WithAlgorithm("FA")); err == nil {
		t.Error("cursor + FA should fail")
	}
	if _, err := eng.Open(Query{F: Min(), K: 2}, WithParallel(2)); err == nil {
		t.Error("cursor + parallel should fail")
	}
	// Adaptive cursors are supported: the divergence monitor attaches to
	// the suspended execution and re-plans between checkpoints.
	if adc, err := eng.Open(Query{F: Min(), K: 2}, WithAdaptive(5)); err != nil {
		t.Errorf("cursor + adaptive should work: %v", err)
	} else {
		if page, err := adc.Next(2); err != nil || len(page.Items) != 2 {
			t.Errorf("adaptive cursor page: %v %v", page, err)
		}
		adc.Close()
	}
	if _, err := eng.Open(Query{F: Min(), K: 2}, WithBudget(-1)); err == nil {
		t.Error("cursor + bad budget should fail")
	}
	// Cursor with a fixed configuration and approximation.
	cur2, err := eng.Open(Query{F: Avg(), K: 5}, WithNC([]float64{0.5, 0.5}, nil), WithApproximation(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cur2.Next(5); err != nil {
		t.Fatal(err)
	}
	cur2.Close()
	if _, err := cur2.Next(1); err == nil {
		t.Error("page after Close should fail")
	}
	if err := cur2.Close(); err != nil {
		t.Errorf("Close should be idempotent, got %v", err)
	}
}

// TestRunOpenOptionRules pins the one option rule set behind Run and Open:
// every resumable combination is accepted or rejected by both alike; only
// the batch-only modes (WithParallel, WithLive, baselines other than TA
// and MPro) split them — Run decides those, Open always refuses.
func TestRunOpenOptionRules(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	res := WithResilience(&Resilience{Breakers: NewBreakerSet(2, BreakerConfig{})})
	cases := []struct {
		name      string
		opts      []RunOption
		batchOnly bool // Run decides; Open must refuse
		runOK     bool
	}{
		{"default", nil, false, true},
		{"fixed", []RunOption{fixed}, false, true},
		{"adaptive", []RunOption{WithAdaptive(5)}, false, true},
		{"adaptive+approximation", []RunOption{WithAdaptive(5), WithApproximation(0.2)}, false, true},
		{"fixed+adaptive+approximation", []RunOption{fixed, WithAdaptive(5), WithApproximation(0.2)}, false, true},
		{"approximation", []RunOption{WithApproximation(0.2)}, false, true},
		{"negative epsilon", []RunOption{WithApproximation(-1)}, false, false},
		{"budget", []RunOption{WithBudget(50)}, false, true},
		{"non-positive budget", []RunOption{WithBudget(0)}, false, false},
		{"resilience+trace", []RunOption{res, WithTrace(), WithObserver(NewMetricsObserver(NewMetricsRegistry()))}, false, true},
		{"TA", []RunOption{WithAlgorithm("TA")}, false, true},
		{"TA+adaptive", []RunOption{WithAlgorithm("TA"), WithAdaptive(5)}, false, true},
		{"TA+approximation", []RunOption{WithAlgorithm("TA"), WithApproximation(0.2)}, false, false},
		{"MPro+adaptive", []RunOption{WithAlgorithm("MPro"), WithAdaptive(5)}, false, true},
		{"MPro+approximation", []RunOption{WithAlgorithm("MPro"), WithApproximation(0.2)}, false, false},
		{"unknown algorithm", []RunOption{WithAlgorithm("bogus")}, false, false},
		{"FA", []RunOption{WithAlgorithm("FA")}, true, true},
		{"NRA+budget", []RunOption{WithAlgorithm("NRA"), WithBudget(1000)}, true, true},
		{"CA+approximation", []RunOption{WithAlgorithm("CA"), WithApproximation(0.2)}, true, false},
		{"parallel", []RunOption{WithParallel(2)}, true, true},
		{"parallel+fixed", []RunOption{WithParallel(2), fixed}, true, true},
		{"parallel+adaptive", []RunOption{WithParallel(2), WithAdaptive(5)}, true, false},
		{"parallel+approximation", []RunOption{WithParallel(2), WithApproximation(0.2)}, true, false},
		{"parallel+TA", []RunOption{WithParallel(2), WithAlgorithm("TA")}, true, false},
		{"live", []RunOption{WithLive(2)}, true, true},
		{"live+parallel", []RunOption{WithLive(2), WithParallel(2)}, true, false},
		{"live+resilience", []RunOption{WithLive(2), res}, true, false},
		{"live+approximation", []RunOption{WithLive(2), WithApproximation(0.2)}, true, false},
	}
	q := Query{F: Min(), K: 4}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, runErr := eng.Run(q, tc.opts...)
			if (runErr == nil) != tc.runOK {
				t.Fatalf("Run: err = %v, want accepted = %v", runErr, tc.runOK)
			}
			cur, openErr := eng.Open(q, tc.opts...)
			if openErr == nil {
				cur.Close()
			}
			switch {
			case tc.batchOnly && openErr == nil:
				t.Error("Open accepted a batch-only mode")
			case !tc.batchOnly && (openErr == nil) != (runErr == nil):
				t.Errorf("Run and Open disagree: Run err = %v, Open err = %v", runErr, openErr)
			}
		})
	}
}

// TestRunAdaptiveTAAttachesMonitor: Run under WithAdaptive attaches the
// telemetry-only divergence monitor to TA exactly as Open does — its
// checkpoints fire through the run — without changing TA's bill. The
// monitor reports nothing to the observer until it would re-plan, which
// TA never does, so the test reads it off Run's pooled cursor.
func TestRunAdaptiveTAAttachesMonitor(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Min(), K: 5}
	plain, err := eng.Run(q, WithAlgorithm("TA"))
	if err != nil {
		t.Fatal(err)
	}
	// sync.Pool may drop a Put (always possible, and deliberate under
	// -race), so retry until Run's state comes back.
	for i := 0; i < 32; i++ {
		ans, err := eng.Run(q, WithAlgorithm("TA"), WithAdaptive(4))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ans.Items, plain.Items) || !reflect.DeepEqual(ans.Ledger, plain.Ledger) {
			t.Fatal("the telemetry-only monitor changed TA's execution")
		}
		st, ok := eng.pool.Get().(*queryState)
		if !ok {
			continue
		}
		ta, ok := st.cur.pager.(*algo.TACursor)
		if !ok {
			t.Fatalf("Run's TA cursor is %T", st.cur.pager)
		}
		ad, ok := ta.Monitor.(*adapt.Adapter)
		if !ok {
			t.Fatal("Run dropped WithAdaptive for TA: no monitor attached")
		}
		if ad.Mon.Checkpoints() == 0 {
			t.Fatal("TA's divergence monitor never checkpointed")
		}
		return
	}
	t.Fatal("the engine pool never returned Run's state")
}
