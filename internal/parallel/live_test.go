package parallel

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/algo/algotest"
	"repro/internal/data"
	"repro/internal/data/datatest"
	"repro/internal/score"
)

// sleepBackend adds a fixed latency to every access of an in-memory
// backend, standing in for network time deterministically.
type sleepBackend struct {
	access.DatasetBackend
	delay time.Duration
}

func (b sleepBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	time.Sleep(b.delay)
	return b.DatasetBackend.Sorted(ctx, pred, rank)
}

func (b sleepBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	time.Sleep(b.delay)
	return b.DatasetBackend.Random(ctx, pred, obj)
}

// failingBackend errors on every random access.
type failingBackend struct{ access.DatasetBackend }

var errBoom = errors.New("boom")

func (b failingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	return 0, errBoom
}

// liveRun runs a problem over backend b on the wall clock, returning the
// session too so tests can read its ledger after a failed run.
func liveRun(ctx context.Context, b access.Backend, scn access.Scenario, f score.Func, k, bound int, h []float64, opts ...access.Option) (*Result, *access.Session, error) {
	sess, err := access.NewSession(b, scn, opts...)
	if err != nil {
		return nil, nil, err
	}
	prob, err := algo.NewProblem(f, k, sess)
	if err != nil {
		return nil, nil, err
	}
	res, err := (&Executor{B: bound, Sel: algotest.MustSRG(h, nil)}).RunLive(ctx, prob)
	return res, sess, err
}

func mustLive(t *testing.T, b access.Backend, scn access.Scenario, f score.Func, k, bound int, h []float64) *Result {
	t.Helper()
	res, _, err := liveRun(context.Background(), b, scn, f, k, bound, h)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLiveMatchesOracle(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 120, 2, 51)
	res := mustLive(t, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 2), score.Min(), 5, 4, []float64{0.5, 0.5})
	assertOracle(t, ds, score.Min(), 5, res.Items)
	if res.Cost() <= 0 || res.Ledger.TotalAccesses() == 0 {
		t.Error("live run accrued no modeled cost")
	}
	if res.Wall <= 0 || res.Elapsed != 0 {
		t.Errorf("wall clock reported Wall=%v Elapsed=%g", res.Wall, res.Elapsed)
	}
}

func TestLiveWallClockSpeedup(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 80, 2, 52)
	backend := sleepBackend{DatasetBackend: access.DatasetBackend{DS: ds}, delay: 2 * time.Millisecond}
	run := func(b int) *Result {
		res := mustLive(t, backend, access.Uniform(2, 1, 1), score.Avg(), 5, b, []float64{0.5, 0.5})
		assertOracle(t, ds, score.Avg(), 5, res.Items)
		return res
	}
	seq := run(1)
	par := run(8)
	// With ~2ms per request, an 8-way executor should finish in well under
	// half the sequential wall time; 60% is a safe flake-proof bound.
	if par.Wall > seq.Wall*6/10 {
		t.Errorf("B=8 wall %v did not improve enough on B=1 wall %v", par.Wall, seq.Wall)
	}
	// Resource usage (modeled cost) stays close to sequential.
	if float64(par.Cost()) > 1.4*float64(seq.Cost()) {
		t.Errorf("B=8 cost %v vs B=1 cost %v", par.Cost(), seq.Cost())
	}
}

func TestLiveProbeScenario(t *testing.T) {
	ds := datatest.MustGenerate(data.AntiCorrelated, 90, 3, 53)
	scn := access.MatrixCell(3, access.Impossible, access.Expensive, 10)
	res := mustLive(t, access.DatasetBackend{DS: ds}, scn, score.Min(), 4, 6, []float64{0, 1, 1})
	assertOracle(t, ds, score.Min(), 4, res.Items)
}

func TestLiveValidation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 10, 2, 1)
	sess, _ := access.NewSession(access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1))
	prob, _ := algo.NewProblem(score.Min(), 2, sess)
	sel := algotest.MustSRG([]float64{0.5, 0.5}, nil)
	if _, err := (&Executor{B: 0, Sel: sel}).RunLive(context.Background(), prob); err == nil {
		t.Error("B=0 should fail")
	}
	if _, err := (&Executor{B: 2}).RunLive(context.Background(), prob); err == nil {
		t.Error("nil selector should fail")
	}
	if _, err := (&Executor{B: 2, Sel: sel}).RunLive(context.Background(), prob); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Executor{B: 2, Sel: sel}).RunLive(context.Background(), prob); err == nil {
		t.Error("a problem's session is single-use; a second run should fail")
	}
}

func TestLiveSurfacesBackendErrors(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 30, 2, 2)
	scn := access.MatrixCell(2, access.Cheap, access.Cheap, 1)
	// Force probes by forbidding deep sorted access.
	_, sess, err := liveRun(context.Background(), failingBackend{access.DatasetBackend{DS: ds}}, scn, score.Avg(), 3, 3, []float64{1, 1})
	if !errors.Is(err, errBoom) {
		t.Errorf("backend error not surfaced: %v", err)
	}
	for i, n := range sess.Ledger().RandomCounts {
		if n != 0 {
			t.Errorf("failed probes on p%d were billed: %d", i+1, n)
		}
	}
}

func TestLiveKLargerThanN(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 6, 2, 3)
	res := mustLive(t, access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1), score.Avg(), 50, 3, []float64{0.5, 0.5})
	assertOracle(t, ds, score.Avg(), 50, res.Items)
}

// countingBackend counts requests and tracks how many are in flight per
// predicate; failRandom, when set, fails every random access after the
// delay.
type countingBackend struct {
	access.DatasetBackend
	delay      time.Duration
	failRandom error

	mu       sync.Mutex
	calls    int
	inflight []int
}

func newCountingBackend(ds *data.Dataset, delay time.Duration) *countingBackend {
	return &countingBackend{DatasetBackend: access.DatasetBackend{DS: ds}, delay: delay, inflight: make([]int, ds.M())}
}

func (b *countingBackend) enter(pred int) {
	b.mu.Lock()
	b.calls++
	b.inflight[pred]++
	b.mu.Unlock()
	time.Sleep(b.delay)
}

func (b *countingBackend) exit(pred int) {
	b.mu.Lock()
	b.inflight[pred]--
	b.mu.Unlock()
}

func (b *countingBackend) Sorted(ctx context.Context, pred, rank int) (int, float64, error) {
	b.enter(pred)
	defer b.exit(pred)
	return b.DatasetBackend.Sorted(ctx, pred, rank)
}

func (b *countingBackend) Random(ctx context.Context, pred, obj int) (float64, error) {
	b.enter(pred)
	defer b.exit(pred)
	if b.failRandom != nil {
		return 0, b.failRandom
	}
	return b.DatasetBackend.Random(ctx, pred, obj)
}

// settled reports the requests made and those still in flight.
func (b *countingBackend) settled() (calls, inflight int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, n := range b.inflight {
		inflight += n
	}
	return b.calls, inflight
}

// TestLiveDrainsInflight: RunLive returns only after every request it
// issued has landed — on success, on a backend failure and on
// cancellation — so no goroutine outlives the run and, on success, the
// ledger counts exactly the requests the sources served.
func TestLiveDrainsInflight(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 9)
	scn := access.Uniform(2, 1, 1)
	h := []float64{0.5, 0.5}

	ok := newCountingBackend(ds, 2*time.Millisecond)
	res, _, err := liveRun(context.Background(), ok, scn, score.Avg(), 5, 8, h)
	if err != nil {
		t.Fatal(err)
	}
	calls, inflight := ok.settled()
	if inflight != 0 {
		t.Errorf("success: %d requests still in flight after RunLive returned", inflight)
	}
	if got := res.Ledger.TotalAccesses(); got != calls {
		t.Errorf("success: ledger counts %d accesses, sources served %d", got, calls)
	}

	failing := newCountingBackend(ds, 2*time.Millisecond)
	failing.failRandom = errBoom
	if _, _, err := liveRun(context.Background(), failing, access.Uniform(2, 1, 1), score.Avg(), 5, 8, []float64{1, 1}); !errors.Is(err, errBoom) {
		t.Fatalf("failure: err = %v, want errBoom", err)
	}
	if _, inflight := failing.settled(); inflight != 0 {
		t.Errorf("failure: %d requests still in flight after RunLive returned", inflight)
	}

	slow := newCountingBackend(ds, 2*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, _, err := liveRun(ctx, slow, scn, score.Avg(), 50, 8, h, access.WithContext(ctx)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancel: err = %v, want context.DeadlineExceeded", err)
	}
	if _, inflight := slow.settled(); inflight != 0 {
		t.Errorf("cancel: %d requests still in flight after RunLive returned", inflight)
	}
}

// TestClocksShareBudget: the session's budget binds both clocks. At B=1
// they refuse the very same access with identical ledgers; at B=8 the
// wall clock counts in-flight reservations against the cap, so it never
// bills past it.
func TestClocksShareBudget(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 21)
	scn := access.Uniform(2, 1, 2)
	h := []float64{0.5, 0.5}
	budget := access.CostOf(15)
	backend := sleepBackend{DatasetBackend: access.DatasetBackend{DS: ds}, delay: time.Millisecond}

	sess, _ := access.NewSession(backend, scn, access.WithBudget(budget))
	prob, _ := algo.NewProblem(score.Avg(), 10, sess)
	if _, err := (&Executor{B: 1, Sel: algotest.MustSRG(h, nil)}).Run(context.Background(), prob); !errors.Is(err, access.ErrBudgetExhausted) {
		t.Fatalf("simulated clock: err = %v, want ErrBudgetExhausted", err)
	}
	_, live, err := liveRun(context.Background(), backend, scn, score.Avg(), 10, 1, h, access.WithBudget(budget))
	if !errors.Is(err, access.ErrBudgetExhausted) {
		t.Fatalf("wall clock: err = %v, want ErrBudgetExhausted", err)
	}
	if !reflect.DeepEqual(sess.Ledger(), live.Ledger()) {
		t.Errorf("B=1 clocks refused different accesses: simulated %+v, wall %+v", sess.Ledger(), live.Ledger())
	}

	_, wide, err := liveRun(context.Background(), backend, scn, score.Avg(), 10, 8, h, access.WithBudget(budget))
	if !errors.Is(err, access.ErrBudgetExhausted) {
		t.Fatalf("B=8 wall clock: err = %v, want ErrBudgetExhausted", err)
	}
	if got := wide.Ledger().TotalCost; got > budget {
		t.Errorf("B=8 wall clock billed %v past the %v budget", got, budget)
	}
}

func TestLiveCancellation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 200, 2, 9)
	backend := sleepBackend{DatasetBackend: access.DatasetBackend{DS: ds}, delay: 2 * time.Millisecond}
	scn := access.Uniform(2, 1, 2)
	h := []float64{0.5, 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := liveRun(ctx, backend, scn, score.Min(), 5, 3, h); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled run: err = %v, want context.Canceled", err)
	}
	// A short deadline mid-run aborts instead of hanging.
	ctx, cancel = context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	if _, _, err := liveRun(ctx, backend, scn, score.Min(), 50, 3, h); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline run: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestExecutorCancellation(t *testing.T) {
	ds := datatest.MustGenerate(data.Uniform, 100, 2, 12)
	sess, err := access.NewSession(access.DatasetBackend{DS: ds}, access.Uniform(2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	prob, err := algo.NewProblem(score.Min(), 5, sess)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := &Executor{B: 2, Sel: algotest.MustSRG([]float64{0.5, 0.5}, nil)}
	if _, err := ex.Run(ctx, prob); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled executor run: err = %v, want context.Canceled", err)
	}
}
