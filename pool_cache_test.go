package topk

import (
	"reflect"
	"sync"
	"testing"
)

// TestPooledRunsMatchFreshEngine hammers one engine with repeated and
// varied queries (so its session/scratch pool is actually recycled) and
// checks every answer and ledger is byte-identical to a fresh engine's.
func TestPooledRunsMatchFreshEngine(t *testing.T) {
	ds := mustGenerateDataset(t, "correlated", 400, 2, 17)
	scn := UniformScenario(2, 1, 5)
	hot, err := NewEngine(DataBackend(ds), scn)
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct {
		q    Query
		opts []RunOption
	}{
		{Query{F: Avg(), K: 5}, []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{Query{F: Avg(), K: 5}, []RunOption{WithNC([]float64{0.5, 0.5}, nil)}},
		{Query{F: Min(), K: 3}, []RunOption{WithNC([]float64{0.8, 0.2}, nil)}},
		{Query{F: Avg(), K: 10}, nil}, // optimizer path
		{Query{F: Avg(), K: 2}, []RunOption{WithAlgorithm("TA")}},
		{Query{F: Avg(), K: 2}, []RunOption{WithAlgorithm("NRA")}},
		{Query{F: Avg(), K: 5}, []RunOption{WithBudget(4), WithNC([]float64{0.5, 0.5}, nil)}},
	}
	for round := 0; round < 3; round++ {
		for i, tc := range queries {
			got, err := hot.Run(tc.q, tc.opts...)
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			cold, err := NewEngine(DataBackend(ds), scn)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Run(tc.q, tc.opts...)
			if err != nil {
				t.Fatalf("round %d query %d (fresh): %v", round, i, err)
			}
			if !reflect.DeepEqual(got.Items, want.Items) {
				t.Errorf("round %d query %d: pooled items %+v, fresh %+v", round, i, got.Items, want.Items)
			}
			if !reflect.DeepEqual(got.Ledger, want.Ledger) {
				t.Errorf("round %d query %d: pooled ledger %+v, fresh %+v", round, i, got.Ledger, want.Ledger)
			}
			if got.Truncated != want.Truncated {
				t.Errorf("round %d query %d: truncated %v vs %v", round, i, got.Truncated, want.Truncated)
			}
		}
	}
}

// TestPooledRunsConcurrent exercises the pool under parallel Runs — and
// Open cursors interleaved with them, since Run's own cursor lives in the
// pooled state — with the race detector; every answer must equal the
// oracle.
func TestPooledRunsConcurrent(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 2, 23)
	eng, err := NewEngine(DataBackend(ds), UniformScenario(2, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	want := TopKOracle(ds, Avg(), 5)
	q := Query{F: Avg(), K: 5}
	fixed := WithNC([]float64{0.5, 0.5}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				var items []Item
				if (g+i)%2 == 0 {
					ans, err := eng.Run(q, fixed)
					if err != nil {
						t.Error(err)
						return
					}
					items = ans.Items
				} else {
					cur, err := eng.Open(q, fixed)
					if err != nil {
						t.Error(err)
						return
					}
					page, err := cur.Next(q.K)
					cur.Close()
					if err != nil {
						t.Error(err)
						return
					}
					items = page.Items
				}
				if !reflect.DeepEqual(items, want) {
					t.Errorf("concurrent pooled run diverged: %+v vs %+v", items, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEnginePlanCache checks WithPlanCache: the second identical Run
// reuses the first's plan (one miss, then hits), answers are unchanged,
// and a second engine sharing the cache also hits.
func TestEnginePlanCache(t *testing.T) {
	ds := mustGenerateDataset(t, "uniform", 300, 2, 7)
	scn := UniformScenario(2, 1, 5)
	cache := NewPlanCache(16)
	eng, err := NewEngine(DataBackend(ds), scn, WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	cfg := OptimizerConfig{Grid: 5, SampleSize: 20, Restarts: 2}
	first, err := eng.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 1 hit", st)
	}
	if !reflect.DeepEqual(first.Items, second.Items) || !reflect.DeepEqual(first.Plan, second.Plan) {
		t.Errorf("cached plan changed the answer: %+v vs %+v", first, second)
	}
	if !reflect.DeepEqual(first.Items, TopKOracle(ds, Avg(), 5)) {
		t.Errorf("answer diverges from oracle: %+v", first.Items)
	}

	other, err := NewEngine(DataBackend(ds), scn, WithPlanCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Run(Query{F: Avg(), K: 5}, WithOptimizer(cfg)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 2 {
		t.Errorf("shared cache should hit across engines, stats = %+v", st)
	}
	// A different k is a different planning problem.
	if _, err := eng.Run(Query{F: Avg(), K: 6}, WithOptimizer(cfg)); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 2 {
		t.Errorf("changed k should miss, stats = %+v", st)
	}
}
