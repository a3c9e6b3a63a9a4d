package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	topk "repro"
	"repro/internal/data"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
}

func TestBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {100, 0.90, 10}, {99, 0.90, 9}, {0, 0.99, 0}, {1, 0.5, 0}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianAndRatio(t *testing.T) {
	xs := []float64{3, 1, 2}
	if got := median(xs); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio(1,0) = %v", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3,4) = %v", got)
	}
}

// Throughput is the median over passes: a pass slowed from outside does
// not move it. Latency percentiles pool all samples.
func TestEndToEndMetricsTakeMediansOverPasses(t *testing.T) {
	ph := &phaseResult{}
	add := func(index int, start, end time.Duration, kind reqKind, latencyMS float64) {
		ph.recs = append(ph.recs, sessionRecord{index: index, start: start, end: end, first: len(ph.reqs), last: len(ph.reqs) + 1,
			billedSorted: 3, billedRandom: 1})
		ph.reqs = append(ph.reqs, reqRecord{kind: kind, ok: true, latency: time.Duration(latencyMS * float64(time.Millisecond))})
	}
	// Three passes of two sessions: 2 requests per second, except pass 1,
	// which a burst made four times slower.
	for p, slow := range []float64{1, 4, 1} {
		base := time.Duration(p) * 4 * time.Second
		add(2*p, base, base+time.Duration(slow*float64(time.Second)), kindQuery, 10*slow)
		add(2*p+1, base, base+time.Duration(slow*float64(time.Second)), kindPage, 2*slow)
	}
	r := &result{}
	endToEndMetrics(r, ph, 2, []float64{3, 1, 2}, 1.5)
	for name, want := range map[string]float64{
		"setup_s": 2, "qps": 2, "query_p50_ms": 10, "page_p50_ms": 2, "query_p99_ms": 40, "page_p90_ms": 8,
		"billed_accesses_per_query": 4, "heap_live_mb": 1.5,
	} {
		if got := r.Metrics[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestMinPassesGiveTenBeyondEachTail(t *testing.T) {
	for name, mk := range workloads() {
		w := mk()
		n := minPassesFor(w, 1)
		oneShot, pages := 0, 0
		for _, sh := range w.pass(1) {
			if sh.Cursor {
				pages += len(cursorPages)
			} else {
				oneShot++
			}
		}
		if beyond(n*oneShot, 0.99) < 10 || beyond(n*pages, 0.90) < 10 {
			t.Errorf("%s: %d passes leave fewer than 10 samples beyond a tail", name, n)
		}
		if n > 1 && beyond((n-1)*oneShot, 0.99) >= 10 && beyond((n-1)*pages, 0.90) >= 10 {
			t.Errorf("%s: %d passes is more than needed", name, n)
		}
	}
}

func TestScheduleIsByteIdenticalPerSeed(t *testing.T) {
	for name, mk := range workloads() {
		n := 2 * mk().passSize(7)
		a, err := scheduleBytes(mk(), 7, n)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scheduleBytes(mk(), 7, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed, different request bytes", name)
		}
		c, err := scheduleBytes(mk(), 8, n)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produced the same request bytes", name)
		}
		if got := strings.Count(string(a), "\n"); got != n {
			t.Errorf("%s: %d sessions rendered, want %d", name, got, n)
		}
	}
}

// Every seed serves the same multiset of shapes per pass, one in five of
// them a cursor; only the order changes.
func TestPassMixIsSeedIndependent(t *testing.T) {
	key := func(p []slotShape) []slotShape {
		out := append([]slotShape(nil), p...)
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if a.Class != b.Class {
				return a.Class < b.Class
			}
			if a.Template != b.Template {
				return a.Template < b.Template
			}
			return !a.Cursor && b.Cursor
		})
		return out
	}
	for name, mk := range workloads() {
		p1, p2 := key(mk().pass(1)), key(mk().pass(2))
		if len(p1) != len(p2) {
			t.Fatalf("%s: pass sizes differ across seeds", name)
		}
		cursors := 0
		for i := range p1 {
			if p1[i] != p2[i] {
				t.Fatalf("%s: pass mix differs across seeds at %d: %+v vs %+v", name, i, p1[i], p2[i])
			}
			if p1[i].Cursor {
				cursors++
			}
		}
		if cursors*cursorEvery != len(p1) {
			t.Errorf("%s: %d cursors in a pass of %d, want one in %d", name, cursors, len(p1), cursorEvery)
		}
	}
}

func TestFreshWeightsDifferPerPass(t *testing.T) {
	w := memMixed()
	seen := map[string]bool{}
	for i := 0; i < 3*w.passSize(1); i++ {
		s := w.session(1, i)
		if s.Template >= 0 {
			continue
		}
		if seen[s.SQL] {
			t.Fatalf("weighted query repeats: %s", s.SQL)
		}
		seen[s.SQL] = true
	}
}

func TestZipfCopies(t *testing.T) {
	c := zipfCopies(24, 120, 1.2)
	sum := 0
	for i, v := range c {
		sum += v
		if v < 1 {
			t.Errorf("template %d gets %d copies", i, v)
		}
		if i > 0 && v > c[i-1] {
			t.Errorf("popularity rises at rank %d: %v", i, c)
		}
	}
	if sum != 120 {
		t.Errorf("copies sum to %d, want 120", sum)
	}
}

func TestColumnSubsets(t *testing.T) {
	got := columnSubsets(4, 2)
	if len(got) != 11 {
		t.Fatalf("%d subsets of size >= 2 of 4 columns, want 11", len(got))
	}
	if !(len(got[0]) == 2 && got[0][0] == 0 && got[0][1] == 1) || len(got[10]) != 4 {
		t.Errorf("unexpected order: %v", got)
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a := newDigest().item(1, 0.5, true).item(2, 0.4, true)
	b := newDigest().item(2, 0.4, true).item(1, 0.5, true)
	c := newDigest().item(1, 0.5, true).item(2, 0.4, false)
	if a == b || a == c {
		t.Error("digest ignores order or exactness")
	}
}

// scanTopK must rank exactly as TopKOracle, ties included.
func TestScanTopKMatchesTopKOracle(t *testing.T) {
	r := newRNG(3)
	rows := make([][]float64, 3000)
	for u := range rows {
		rows[u] = make([]float64, 4)
		for i := range rows[u] {
			rows[u][i] = float64(r.intn(20)) / 19 // coarse grid: many ties
		}
	}
	ds, err := data.New("ties", rows)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(ds, nil)
	cols := &columns{n: ds.N(), col: make([][]float64, 4)}
	for i := range cols.col {
		for u := 0; u < ds.N(); u++ {
			cols.col[i] = append(cols.col[i], ds.Score(u, i))
		}
	}
	for trial := 0; trial < 30; trial++ {
		sel := columnSubsets(4, 2)[trial%11]
		k := []int{1, 10, 70, 3000}[trial%4]
		var f topk.ScoreFunc
		switch trial % 3 {
		case 0:
			f = topk.Min()
		case 1:
			f = topk.Avg()
		default:
			f = topk.Weighted(freshWeights(r, len(sel))...)
		}
		p, err := o.projection(sel)
		if err != nil {
			t.Fatal(err)
		}
		want := topk.TopKOracle(p, f, k)
		got := scanTopK(cols, sel, f, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s over %v, k=%d): item %d = %+v, want %+v", trial, f.Name(), sel, k, i, got[i], want[i])
			}
		}
	}
}

// The store workload's oracle twin replays the generator stream; it must
// hold exactly the scores topk.GenerateDataset (and so topk.BuildStore)
// produces for the same seed.
func TestStreamColumnsMatchGenerate(t *testing.T) {
	ds, err := topk.GenerateDataset("uniform", 500, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cols, err := streamColumns(500, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 500; u++ {
		for i := 0; i < 4; i++ {
			if cols.col[i][u] != ds.Score(u, i) {
				t.Fatalf("object %d predicate %d: twin %v, dataset %v", u, i, cols.col[i][u], ds.Score(u, i))
			}
		}
	}
}

func TestCostMismatch(t *testing.T) {
	scn := probeOnlyLast(topk.UniformScenario(3, 1, 2))
	rec := &reqRecord{cost: 2*1 + 3*2 + 4*2}
	rec.sorted[0], rec.random[0], rec.random[1] = 2, 3, 4
	if why := costMismatch(scn, []int{0, 2}, rec); why != "" {
		t.Errorf("consistent ledger flagged: %s", why)
	}
	rec.cost++
	if why := costMismatch(scn, []int{0, 2}, rec); why == "" {
		t.Error("inconsistent ledger passed")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("BENCHMARK.json not found: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tiny shrinks each workload's database so a smoke run takes seconds.
func tiny(w *workload) {
	switch w.name {
	case "mem-mixed":
		w.n = 400
	case "store-probe":
		w.n = 20_000
	case "cluster-shared":
		w.n = 1500
	}
}

// smoke runs one tiny instance of a workload and checks the report: every
// metric BENCHMARK.json names, with its unit, no failures, and a last
// output line of exactly the contract's shape.
func smoke(t *testing.T, name string, traced bool) *result {
	t.Helper()
	cfg := config{workload: name, seed: 5, seconds: 0, trace: traced, setups: 2, workDir: t.TempDir(), scale: tiny}
	res, err := benchmark(cfg, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v failed=%d attempted=%d notes=%v", name, res.Correct, res.Failed, res.Attempted, res.notes)
	}
	spec := readSpec(t)
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", name, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", name, m.Name, got.Value)
		}
	}
	var out bytes.Buffer
	res.print(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line keys: %v", last)
	}
	for _, m := range want {
		if !strings.Contains(out.String(), m.Name) {
			t.Errorf("%s: %s not printed", name, m.Name)
		}
	}
	return res
}

func TestDiscountsSettleOnlyAtTheCap(t *testing.T) {
	for _, c := range []struct {
		name string
		st   topk.SharingStats
		want bool
	}{
		{"sharing off", topk.SharingStats{}, true},
		{"below the cap", topk.SharingStats{SortedHits: 89, SortedMisses: 11, RandomHits: 95, RandomMisses: 5}, false},
		{"random below the cap", topk.SharingStats{SortedHits: 100, RandomHits: 85, RandomMisses: 15}, false},
		{"both at the cap", topk.SharingStats{SortedHits: 95, SortedMisses: 5, RandomHits: 999, RandomMisses: 1}, true},
	} {
		if got := discountsSettled(c.st); got != c.want {
			t.Errorf("%s: discountsSettled = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range []string{"mem-mixed", "store-probe", "cluster-shared"} {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, false)
			if fr := res.extra["failed_ratio"]; fr.Value != 0 || fr.Unit != "ratio" {
				t.Errorf("failed_ratio = %+v", fr)
			}
			for _, m := range []string{"qps", "query_p50_ms", "setup_s", "billed_accesses_per_query"} {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m, res.Metrics[m].Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, name := range []string{"mem-mixed", "store-probe", "cluster-shared"} {
		t.Run(name, func(t *testing.T) {
			res := smoke(t, name, true)
			if v := res.Metrics["trace.overhead_ratio"].Value; v <= 0 {
				t.Errorf("trace.overhead_ratio = %v", v)
			}
			// The layers each workload exists to exercise must show work.
			layer := map[string]string{
				"mem-mixed":      "engine.iterations_per_query",
				"store-probe":    "store.random_reads_per_query",
				"cluster-shared": "share.random_hit_ratio",
			}[name]
			if v := res.Metrics[layer].Value; v <= 0 {
				t.Errorf("%s = %v, want > 0", layer, v)
			}
		})
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %q", stdout.String())
	}
}

func TestNotesCoverEveryWorkload(t *testing.T) {
	raw, err := os.ReadFile("notes.json")
	if err != nil {
		t.Fatal(err)
	}
	var notes struct {
		DefaultSeed int64                      `json:"default_seed"`
		HoldoutSeed int64                      `json:"holdout_seed"`
		Workloads   map[string]json.RawMessage `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &notes); err != nil {
		t.Fatal(err)
	}
	if notes.DefaultSeed == notes.HoldoutSeed {
		t.Error("holdout seed equals the default seed")
	}
	for name := range workloads() {
		if notes.Workloads[name] == nil {
			t.Errorf("notes.json has no entry for %s", name)
		}
	}
	for _, w := range readSpec(t).Workloads {
		if workloads()[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}
