// Command perfbench is the repository's end-to-end benchmark. It starts the
// top-k service in-process from its public constructors (service.NewHandler
// behind an http.Server on 127.0.0.1, over an in-memory dataset, a disk
// store, or a websim shard cluster), drives it over loopback HTTP with a
// closed loop of two clients, checks every answer against an oracle, and
// prints the end-to-end metrics. With --trace 1 it instead runs the same
// schedule twice, untraced and traced, and prints per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mem-mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"qps":{"value":..,"unit":"req/s"},..}}
//
// The process exits 1 when any answer is wrong or any request failed.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times an end-to-end run deploys the system, each
// over its own data: setup_s is the median, so one slow deployment does
// not move it.
const setups = 3

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setups is how many deployments an end-to-end run makes; the timed
	// sequence is split across them.
	setups  int
	workDir string
	// scale, when set, shrinks the workload's database (tests).
	scale func(*workload)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: mem-mixed, store-probe or cluster-shared")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: data and request sequence derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "timed phase length, rounded up to whole passes")
	fs.IntVar(&trace, "trace", 0, "1 runs the untraced and traced schedule and prints per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", storeWorkDir, "directory for generated stores and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = setups
	res, err := benchmark(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's report; its JSON form is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	title string
	order []string
	// extra are figures printed for the reader but kept out of the JSON
	// line (failed_ratio is 0 on a correct run, so no ratio of runs can be
	// taken of it; attempted and failed carry it instead).
	extra map[string]metric
	notes []string
}

func (r *result) add(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) addExtra(name, unit string, v float64) {
	if r.extra == nil {
		r.extra = map[string]metric{}
	}
	r.extra[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *result) print(w io.Writer) {
	fmt.Fprintln(w, r.title)
	for _, name := range r.order {
		m, ok := r.Metrics[name]
		if !ok {
			m = r.extra[name]
		}
		fmt.Fprintf(w, "  %-38s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  note:", n)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(w, string(line))
}

// runtimeStats is the slice of runtime.MemStats the benchmark reads.
type runtimeStats struct {
	mallocs, totalAlloc, heapAlloc uint64
	numGC                          uint32
}

func (s *runtimeStats) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.totalAlloc, s.heapAlloc, s.numGC = ms.Mallocs, ms.TotalAlloc, ms.HeapAlloc, ms.NumGC
}

func benchmark(cfg config, logw io.Writer) (*result, error) {
	mk, ok := workloads()[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of mem-mixed, store-probe, cluster-shared)", cfg.workload)
	}
	w := mk()
	if cfg.scale != nil {
		cfg.scale(w)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	// The request sequence must be a pure function of the seed.
	n := 2 * w.passSize(cfg.seed)
	b1, err := scheduleBytes(w, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	if b2, _ := scheduleBytes(mk(), cfg.seed, n); !bytes.Equal(b1, b2) {
		return nil, errors.New("request schedule is not deterministic in the seed")
	}
	d1, _ := scheduleDigest(w, cfg.seed, n)
	fmt.Fprintf(logw, "perfbench: %s seed=%d schedule digest %016x (%d sessions per pass)\n", w.name, cfg.seed, d1, w.passSize(cfg.seed))
	if cfg.trace {
		return traced(cfg, w, logw)
	}
	return endToEnd(cfg, w, logw)
}

// endToEnd deploys the system cfg.setups times, each over its own data
// drawn from the seed, and splits the timed sequence across the
// deployments: set-up is timed up to each deployment's first timed
// request, and every deployment's answers are checked once its segment
// ends. Spreading the run over several datasets keeps the figures a
// property of the system rather than of one draw of the data.
func endToEnd(cfg config, w *workload, logw io.Writer) (*result, error) {
	var (
		setupS, heapMB []float64
		all            = &phaseResult{}
		failed         int
		notes          []string
	)
	passes := minPassesFor(w, cfg.seed)
	for i := 0; i < cfg.setups; i++ {
		ds := dataSeed(cfg.seed, i)
		t0 := time.Now()
		sys, err := deployAndWarm(w, &env{workDir: cfg.workDir}, cfg.seed, ds)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		runtime.GC()
		spec := phaseSpec{seconds: cfg.seconds / float64(cfg.setups), minPasses: passes / cfg.setups}
		if i < passes%cfg.setups {
			spec.minPasses++
		}
		ph := runPhase(w, cfg.seed, sys.base, spec, false)
		// Two forced collections: the first moves sync.Pool contents to
		// the pools' victim caches, the second frees them, so what remains
		// is what the deployment retains (caches, registries), not what
		// the last requests happened to leave pooled.
		runtime.GC()
		runtime.GC()
		var ms runtimeStats
		ms.read()
		heapMB = append(heapMB, float64(ms.heapAlloc-ph.ownBytes-all.ownBytes)/(1<<20))
		scn := sys.scn
		sys.close()
		fmt.Fprintf(logw, "perfbench: deployment %d of %d: set-up %.3fs, timed phase %d sessions in %.3fs\n",
			i+1, cfg.setups, setupS[i], ph.sessions, ph.wall.Seconds())

		t0 = time.Now()
		o, err := newWorkloadOracle(w, ds)
		if err != nil {
			return nil, err
		}
		bad, reasons := verify(w, cfg.seed, scn, o, ph)
		fmt.Fprintf(logw, "perfbench: verified %d sessions against the oracle in %.3fs\n", len(ph.recs), time.Since(t0).Seconds())
		for _, q := range ph.reqs {
			if !q.ok {
				failed++
			}
		}
		failed += bad
		notes = append(notes, append(ph.reasons, reasons...)...)
		all.merge(ph, i)
	}
	r := &result{title: fmt.Sprintf("perfbench %s seed=%d: %d sessions, %d requests in %.2fs over %d deployments (closed loop, %d clients)",
		w.name, cfg.seed, all.sessions, len(all.reqs), all.wall.Seconds(), cfg.setups, clients)}
	r.Attempted, r.Failed, r.Correct = len(all.reqs), failed, failed == 0
	endToEndMetrics(r, all, w.passSize(cfg.seed), setupS, median(heapMB))
	r.notes = append(r.notes, notes...)
	r.notes = append(r.notes, sampleNotes(all)...)
	return r, nil
}

// newWorkloadOracle regenerates the workload's data from the seed — the
// in-memory twin of whatever the deployment served — for the oracle.
func newWorkloadOracle(w *workload, seed int64) (*oracle, error) {
	if w.n > 100_000 {
		cols, err := streamColumns(w.n, w.m, seed)
		return newOracle(nil, cols), err
	}
	ds, err := generate(w, seed)
	return newOracle(ds, nil), err
}

// passStats are one pass's successful requests and wall-clock span.
type passStats struct {
	ok       int
	from, to time.Duration
}

// endToEndMetrics fills the user-visible metrics of one timed phase.
// Throughput is the median over passes of each pass's throughput, so a
// burst of contention from outside that covers a minority of passes does
// not move it; the latency percentiles pool every sample of the run.
func endToEndMetrics(r *result, ph *phaseResult, passSize int, setups []float64, heapMB float64) {
	passes := map[int]*passStats{}
	var queryMS, pageMS []float64
	var billed float64
	sessions := 0
	for _, s := range ph.recs {
		ps := passes[s.index/passSize]
		if ps == nil {
			ps = &passStats{from: s.start}
			passes[s.index/passSize] = ps
		}
		ps.from, ps.to = min(ps.from, s.start), max(ps.to, s.end)
		if !s.failed {
			billed += float64(s.billedSorted + s.billedRandom)
			sessions++
		}
		for _, q := range ph.reqs[s.first:s.last] {
			if !q.ok {
				continue
			}
			ps.ok++
			ms := float64(q.latency) / float64(time.Millisecond)
			switch q.kind {
			case kindQuery:
				queryMS = append(queryMS, ms)
			case kindPage:
				pageMS = append(pageMS, ms)
			}
		}
	}
	var qps []float64
	for _, ps := range passes {
		qps = append(qps, float64(ps.ok)/(ps.to-ps.from).Seconds())
	}
	attempted := float64(len(ph.reqs))
	r.add("setup_s", "s", median(setups))
	r.add("qps", "req/s", median(qps))
	r.add("query_p50_ms", "ms", percentile(queryMS, 0.50))
	r.add("query_p99_ms", "ms", percentile(queryMS, 0.99))
	r.add("page_p50_ms", "ms", percentile(pageMS, 0.50))
	r.add("page_p90_ms", "ms", percentile(pageMS, 0.90))
	r.add("billed_accesses_per_query", "count", ratio(billed, float64(sessions)))
	r.add("allocs_per_query", "count", ratio(float64(ph.mallocs), attempted))
	r.add("bytes_per_query", "B", ratio(float64(ph.totalAlloc), attempted))
	r.add("heap_live_mb", "MiB", heapMB)
	r.addExtra("failed_ratio", "ratio", ratio(float64(r.Failed), attempted))
}

// sampleNotes states the sample counts behind the tail percentiles and
// warns when fewer than ten samples lie beyond one.
func sampleNotes(ph *phaseResult) []string {
	nq, np := 0, 0
	for _, q := range ph.reqs {
		switch {
		case q.ok && q.kind == kindQuery:
			nq++
		case q.ok && q.kind == kindPage:
			np++
		}
	}
	notes := []string{fmt.Sprintf("samples: %d one-shot queries (%d beyond p99), %d cursor pages (%d beyond p90)",
		nq, beyond(nq, 0.99), np, beyond(np, 0.90))}
	if beyond(nq, 0.99) < 10 || beyond(np, 0.90) < 10 {
		notes = append(notes, "WARNING: fewer than 10 samples beyond a reported tail percentile; run longer")
	}
	return notes
}

// spanPath names the traced run's span file.
func spanPath(dir, name string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", strings.ReplaceAll(name, "/", "_"), seed))
}
