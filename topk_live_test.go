package topk

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/access"
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
}

// TestParallelLiveIdenticalAtB1: at B=1 both clocks of the concurrent
// executor dispatch the same single access at a time through the same
// session, so WithParallel(1) and WithLive(1) return byte-identical items
// and ledgers (or the same error) in every Figure-2 cell.
func TestParallelLiveIdenticalAtB1(t *testing.T) {
	ds := exampleDataset(t)
	for _, cell := range figure2Cells(2, 2) {
		eng, err := NewEngine(DataBackend(ds), cell.scn)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []ScoreFunc{Min(), Avg()} {
			for _, h := range [][]float64{{.5, .5}, {1, 1}, {0, 0}} {
				q := Query{F: f, K: 5}
				sim, simErr := eng.Run(q, WithParallel(1), WithNC(h, nil))
				live, liveErr := eng.Run(q, WithLive(1), WithNC(h, nil))
				label := fmt.Sprintf("%s/%s/h=%v", cell.name, f.Name(), h)
				if simErr != nil || liveErr != nil {
					if fmt.Sprint(simErr) != fmt.Sprint(liveErr) {
						t.Errorf("%s: errors differ: parallel %v, live %v", label, simErr, liveErr)
					}
					continue
				}
				if !reflect.DeepEqual(sim.Items, live.Items) || !reflect.DeepEqual(sim.Ledger, live.Ledger) {
					t.Errorf("%s: B=1 clocks diverged:\nparallel %v %+v\nlive     %v %+v", label, sim.Items, sim.Ledger, live.Items, live.Ledger)
				}
			}
		}
	}
}

// TestConcurrentClocksShareBudget: WithBudget binds both concurrent
// clocks through the one session ledger — each fails with
// ErrBudgetExhausted rather than billing past the cap.
func TestConcurrentClocksShareBudget(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{F: Min(), K: 5}
	for _, mode := range []RunOption{WithParallel(2), WithLive(2)} {
		if _, err := eng.Run(q, mode, WithNC([]float64{.5, .5}, nil), WithBudget(3)); !errors.Is(err, access.ErrBudgetExhausted) {
			t.Errorf("err = %v, want ErrBudgetExhausted", err)
		}
	}
}

// hangingBackend never answers a sorted access on its second predicate
// until the access's context ends — a hung source.
type hangingBackend struct{ Backend }

func (b hangingBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	if pred == 1 {
		<-ctx.Done()
		return 0, 0, ctx.Err()
	}
	return b.Backend.Sorted(ctx, pred, rank)
}

// TestLiveAccessTimeout: under WithLive the session's per-access deadline
// bounds every concurrent request, so a hung source fails the run
// promptly with ErrAccessFailed instead of blocking until the query's own
// deadline.
func TestLiveAccessTimeout(t *testing.T) {
	ds := exampleDataset(t)
	eng, err := NewEngine(hangingBackend{DataBackend(ds)}, UniformScenario(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, err = eng.Run(Query{F: Min(), K: 5}, WithLive(4), WithNC([]float64{.5, .5}, nil), WithContext(ctx),
		WithResilience(&Resilience{AccessTimeout: 5 * time.Millisecond}))
	if !errors.Is(err, access.ErrAccessFailed) {
		t.Fatalf("err = %v, want ErrAccessFailed", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("hung source held the run for %v", took)
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
	shifted, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2),
		WithCostShifts(CostShift{AfterAccesses: 5, Pred: 0, RandomFactor: 2}))
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
		eng       *Engine // nil = the plain engine
	}{
		{"default", nil, false, true, nil},
		{"fixed", []RunOption{fixed}, false, true, nil},
		{"adaptive", []RunOption{WithAdaptive(5)}, false, true, nil},
		{"adaptive+approximation", []RunOption{WithAdaptive(5), WithApproximation(0.2)}, false, true, nil},
		{"fixed+adaptive+approximation", []RunOption{fixed, WithAdaptive(5), WithApproximation(0.2)}, false, true, nil},
		{"approximation", []RunOption{WithApproximation(0.2)}, false, true, nil},
		{"negative epsilon", []RunOption{WithApproximation(-1)}, false, false, nil},
		{"budget", []RunOption{WithBudget(50)}, false, true, nil},
		{"non-positive budget", []RunOption{WithBudget(0)}, false, false, nil},
		{"resilience+trace", []RunOption{res, WithTrace(), WithObserver(NewMetricsObserver(NewMetricsRegistry()))}, false, true, nil},
		{"TA", []RunOption{WithAlgorithm("TA")}, false, true, nil},
		{"TA+adaptive", []RunOption{WithAlgorithm("TA"), WithAdaptive(5)}, false, true, nil},
		{"TA+approximation", []RunOption{WithAlgorithm("TA"), WithApproximation(0.2)}, false, false, nil},
		{"MPro+adaptive", []RunOption{WithAlgorithm("MPro"), WithAdaptive(5)}, false, true, nil},
		{"MPro+approximation", []RunOption{WithAlgorithm("MPro"), WithApproximation(0.2)}, false, false, nil},
		{"unknown algorithm", []RunOption{WithAlgorithm("bogus")}, false, false, nil},
		{"FA", []RunOption{WithAlgorithm("FA")}, true, true, nil},
		{"NRA+budget", []RunOption{WithAlgorithm("NRA"), WithBudget(1000)}, true, true, nil},
		{"CA+approximation", []RunOption{WithAlgorithm("CA"), WithApproximation(0.2)}, true, false, nil},
		{"parallel", []RunOption{WithParallel(2)}, true, true, nil},
		{"parallel+fixed", []RunOption{WithParallel(2), fixed}, true, true, nil},
		{"parallel+adaptive", []RunOption{WithParallel(2), WithAdaptive(5)}, true, false, nil},
		{"parallel+approximation", []RunOption{WithParallel(2), WithApproximation(0.2)}, true, false, nil},
		{"parallel+TA", []RunOption{WithParallel(2), WithAlgorithm("TA")}, true, false, nil},
		{"live", []RunOption{WithLive(2)}, true, true, nil},
		{"live+parallel", []RunOption{WithLive(2), WithParallel(2)}, true, false, nil},
		{"live+resilience", []RunOption{WithLive(2), res}, true, true, nil},
		{"live+shifts", []RunOption{WithLive(2)}, true, true, shifted},
		{"live+approximation", []RunOption{WithLive(2), WithApproximation(0.2)}, true, false, nil},
	}
	q := Query{F: Min(), K: 4}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := eng
			if tc.eng != nil {
				eng = tc.eng
			}
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
