package main

import (
	"fmt"
	"math"
	"sync"

	topk "repro"
	"repro/internal/data"
)

// digest is an allocation-free FNV-1a accumulator over a ranked answer
// list: the client folds each page's items into its session's digest as
// responses arrive, and verification folds the oracle's answer the same
// way, so the run keeps eight bytes per session instead of every answer.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) word(v uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(v >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

// item folds one answer: object id, exact score bits, exactness.
func (d digest) item(obj int, score float64, exact bool) digest {
	d = d.word(uint64(obj)).word(math.Float64bits(score))
	if exact {
		return d.word(1)
	}
	return d.word(0)
}

// oracle computes exact answers on the workload's generated data.
type oracle struct {
	// ds is the generated dataset (small workloads): answers come from
	// topk.TopKOracle on its projection.
	ds *topk.Dataset
	// cols is the in-memory twin of a large workload's data as flat
	// columns, from the same generator stream the store writer consumes:
	// answers come from scanTopK, since a full sort per query is
	// unaffordable at n=1e6.
	cols *columns

	mu   sync.Mutex
	proj map[string]*topk.Dataset
	memo map[[2]int]digest
}

// columns holds n objects' scores column by column.
type columns struct {
	n   int
	col [][]float64
}

func newOracle(ds *topk.Dataset, cols *columns) *oracle {
	return &oracle{ds: ds, cols: cols, proj: map[string]*topk.Dataset{}, memo: map[[2]int]digest{}}
}

// streamColumns replays the uniform generator for (n, m, seed) into
// columns: bit-identical to topk.GenerateDataset's scores and to what
// topk.BuildStore writes, without the sorted orders a Dataset builds.
func streamColumns(n, m int, seed int64) (*columns, error) {
	c := &columns{n: n, col: make([][]float64, m)}
	for i := range c.col {
		c.col[i] = make([]float64, n)
	}
	err := data.Stream(data.Uniform, n, m, seed, func(u int, row []float64) error {
		for i, v := range row {
			c.col[i][u] = v
		}
		return nil
	})
	return c, err
}

// answer returns the digest of the exact top-Depth answer to s. Fixed
// templates are memoized per (template, depth).
func (o *oracle) answer(s *session) (digest, error) {
	key := [2]int{s.Template, s.Depth()}
	if s.Template >= 0 {
		o.mu.Lock()
		d, ok := o.memo[key]
		o.mu.Unlock()
		if ok {
			return d, nil
		}
	}
	var items []topk.Item
	if o.cols != nil {
		items = scanTopK(o.cols, s.Cols, s.F, s.Depth())
	} else {
		p, err := o.projection(s.Cols)
		if err != nil {
			return 0, err
		}
		items = topk.TopKOracle(p, s.F, s.Depth())
	}
	d := newDigest()
	for _, it := range items {
		d = d.item(it.Obj, it.Score, it.Exact)
	}
	if s.Template >= 0 {
		o.mu.Lock()
		o.memo[key] = d
		o.mu.Unlock()
	}
	return d, nil
}

func (o *oracle) projection(cols []int) (*topk.Dataset, error) {
	key := fmt.Sprint(cols)
	o.mu.Lock()
	defer o.mu.Unlock()
	if p, ok := o.proj[key]; ok {
		return p, nil
	}
	p, err := data.Project(o.ds, cols)
	if err != nil {
		return nil, err
	}
	o.proj[key] = p
	return p, nil
}

// scanTopK is TopKOracle's answer without the full sort: one pass over
// the objects evaluating f on the selected columns, keeping the best k in
// a min-heap under data.Less (score descending, then higher object id),
// the order every algorithm and TopKOracle rank by.
func scanTopK(c *columns, sel []int, f topk.ScoreFunc, k int) []topk.Item {
	if k > c.n {
		k = c.n
	}
	heap := make([]data.Ranked, 0, k)
	row := make([]float64, len(sel))
	// below reports whether heap entry a ranks below entry b.
	below := func(a, b int) bool {
		return data.Less(heap[a].Score, heap[a].Obj, heap[b].Score, heap[b].Obj)
	}
	down := func(i int) {
		for {
			l, small := 2*i+1, i
			if l < len(heap) && below(l, small) {
				small = l
			}
			if r := l + 1; r < len(heap) && below(r, small) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	// For a weighted sum, a row whose inline sum falls clearly below the
	// current k-th best cannot enter; f.Eval decides every other row, so
	// the margin only has to cover rounding (fused or not) of the sum.
	wts := weightsOf(f)
	for u := 0; u < c.n; u++ {
		if wts != nil && len(heap) == k {
			approx := 0.0
			for i, col := range sel {
				approx += wts[i] * c.col[col][u]
			}
			if approx < heap[0].Score-1e-9 {
				continue
			}
		}
		for i, col := range sel {
			row[i] = c.col[col][u]
		}
		sc := f.Eval(row)
		if len(heap) < k {
			heap = append(heap, data.Ranked{Obj: u, Score: sc})
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !below(i, p) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if data.Less(sc, u, heap[0].Score, heap[0].Obj) {
			continue
		}
		heap[0] = data.Ranked{Obj: u, Score: sc}
		down(0)
	}
	out := make([]topk.Item, len(heap))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = topk.Item{Obj: heap[0].Obj, Score: heap[0].Score, Exact: true}
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		down(0)
	}
	return out
}

// weightsOf returns a weighted sum's weights, or nil for other functions.
func weightsOf(f topk.ScoreFunc) []float64 {
	if w, ok := f.(interface{ Weights() []float64 }); ok {
		return w.Weights()
	}
	return nil
}

// costTolerance bounds float error when re-deriving a response's cost
// from its access counts.
const costTolerance = 1e-6

// costMismatch re-prices a response's access counts under the workload's
// scenario (projected onto the session's columns) and reports a
// disagreement with the cost the response claims.
func costMismatch(scn topk.Scenario, cols []int, r *reqRecord) string {
	want := 0.0
	for i, c := range cols {
		want += float64(r.sorted[i])*scn.Preds[c].Sorted.Units() + float64(r.random[i])*scn.Preds[c].Random.Units()
	}
	if math.Abs(want-r.cost) > costTolerance*math.Max(1, want) {
		return fmt.Sprintf("cost %.9g disagrees with its access counts (%.9g under %s)", r.cost, want, scn.Name)
	}
	return ""
}

// verify checks every recorded session of the phase against the oracle
// and every response's cost against its counts, with two workers. It
// marks failed sessions and returns how many newly failed, with the first
// few reasons.
func verify(w *workload, seed int64, scn topk.Scenario, o *oracle, ph *phaseResult) (int, []string) {
	var (
		mu      sync.Mutex
		failed  int
		reasons []string
		wg      sync.WaitGroup
	)
	for wk := 0; wk < clients; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(ph.recs); i += clients {
				r := &ph.recs[i]
				if r.failed {
					continue
				}
				s := w.session(seed, r.index)
				why := ""
				for j := r.first; j < r.last && why == ""; j++ {
					if ph.reqs[j].kind != kindClose {
						why = costMismatch(scn, s.Cols, &ph.reqs[j])
					}
				}
				if why == "" {
					d, err := o.answer(&s)
					switch {
					case err != nil:
						why = "oracle: " + err.Error()
					case d != r.items || r.nItems != s.Depth():
						why = fmt.Sprintf("answer differs from the oracle's top-%d (%d items returned)", s.Depth(), r.nItems)
					}
				}
				if why != "" {
					mu.Lock()
					r.failed = true
					failed++
					if len(reasons) < 5 {
						reasons = append(reasons, fmt.Sprintf("session %d %q: %s", r.index, s.SQL, why))
					}
					mu.Unlock()
				}
			}
		}(wk)
	}
	wg.Wait()
	return failed, reasons
}
