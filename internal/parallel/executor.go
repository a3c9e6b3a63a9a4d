// Package parallel layers bounded-concurrency execution on top of the
// sequential access-minimization framework, as Sections 3.2 and 9.1.1 of
// the paper prescribe: total access cost measures resource usage, elapsed
// time benefits from concurrency, and unbounded concurrency would abuse
// sources — so we parallelize within a concurrency limit B, dispatching
// only accesses the sequential framework itself would consider.
//
// One dispatch loop follows Framework NC's logic — scan the current top-k
// candidates (K_P) in rank order; for each incomplete one, take the access
// its selector would choose and launch it unless an equivalent access is
// already in flight. Two rules keep resource usage near the sequential
// plan's:
//
//   - Sorted streams pipeline: several sorted accesses on one list may be
//     in flight at once (Web sources serve concurrent requests); their
//     results are applied in list order so the last-seen bounds stay
//     monotone.
//   - No second-guessing: if a task's chosen access cannot be launched
//     (its task already has an access in flight), the task is skipped
//     rather than degraded to a different access kind — firing probes the
//     sequential selector would not fire is exactly the speculation that
//     inflates cost.
//
// The loop runs on one of two clocks. The simulated clock (Run) performs
// each access at dispatch and completes it a unit cost later, so elapsed
// time is simulated deterministically. The wall clock (RunLive) issues
// each backend request in its own goroutine and completes it when it
// lands. Either way every access is begun, fetched and finished through
// the problem's access.Session, the one legality and billing authority.
package parallel

import (
	"container/heap"
	"context"
	"fmt"
	"time"

	"repro/internal/access"
	"repro/internal/algo"
	"repro/internal/obs"
	"repro/internal/state"
)

// Result extends the sequential result with timing.
type Result struct {
	Items   []algo.Item
	Ledger  access.Ledger
	Elapsed float64       // simulated elapsed time in cost units (Run)
	Wall    time.Duration // measured wall-clock time (RunLive)
	MaxUsed int           // peak number of concurrently occupied slots
}

// Cost returns the total access cost (resource usage) of the run.
func (r *Result) Cost() access.Cost { return r.Ledger.TotalCost }

// Executor runs a problem with at most B concurrent accesses, choosing
// accesses with the given selector (typically an optimizer-produced SR/G
// configuration). Access-level events flow from the session's observer;
// a run fails on the first refused or failed access — a budget running
// out included — rather than returning a truncated answer.
type Executor struct {
	B   int
	Sel algo.Selector
	// Obs, when non-nil, receives executor events: InflightChange on every
	// dispatch and completion and DispatchStall when a fill round leaves
	// slots empty. All emissions happen on the goroutine that called Run
	// or RunLive.
	Obs obs.Observer
}

// Run executes the problem on the simulated clock: each access occupies
// one of B slots for a latency equal to its unit cost. The context
// cancels the run between dispatch rounds.
func (ex *Executor) Run(ctx context.Context, p *algo.Problem) (*Result, error) {
	return ex.run(ctx, p, &simClock{sess: p.Session})
}

// RunLive executes the problem on the wall clock, with genuinely
// concurrent backend requests — the deployment counterpart of Run for a
// live source such as the HTTP client of internal/websim, which must be
// safe for concurrent use. Requests run under the session's context
// (access.WithContext), so cancelling that context aborts the ones in
// flight; ctx stops the run between completions. RunLive returns only
// once every request it issued has landed and been settled in the ledger.
func (ex *Executor) RunLive(ctx context.Context, p *algo.Problem) (*Result, error) {
	// At most B requests are in flight, so a buffer of B never blocks a
	// request's goroutine on delivery.
	return ex.run(ctx, p, &wallClock{sess: p.Session, begun: time.Now(), done: make(chan flight, max(ex.B, 1))})
}

// flight is one in-flight access.
type flight struct {
	access.Pending
	task int     // the candidate whose task triggered the dispatch
	done float64 // simulated completion time
	seq  int     // simulated dispatch order, breaking completion ties
}

// clock is the seam between the dispatch loop and its notion of time.
type clock interface {
	// start carries out an access begun on the session.
	start(f flight) error
	// next returns the in-flight access that completes first, finished
	// on the session.
	next() (flight, error)
	// drain settles the n accesses still in flight when the run ends.
	drain(n int)
	// stamp records the run's time.
	stamp(r *Result)
}

// simClock performs an access at dispatch and completes it at now + its
// unit cost, in completion order from a heap.
type simClock struct {
	sess *access.Session
	now  float64
	seq  int
	h    flightHeap
}

func (c *simClock) start(f flight) error {
	c.sess.Fetch(&f.Pending)
	if err := c.sess.Finish(&f.Pending); err != nil {
		return err
	}
	f.done, f.seq = c.now+f.Cost.Units(), c.seq
	c.seq++
	heap.Push(&c.h, f)
	return nil
}

func (c *simClock) next() (flight, error) {
	f := heap.Pop(&c.h).(flight)
	c.now = f.done
	return f, nil
}

// drain has nothing to settle: simulated accesses were performed and
// billed at dispatch.
func (c *simClock) drain(int) {}

func (c *simClock) stamp(r *Result) { r.Elapsed = c.now }

type flightHeap []flight

func (h flightHeap) Len() int { return len(h) }
func (h flightHeap) Less(a, b int) bool {
	if h[a].done != h[b].done {
		return h[a].done < h[b].done
	}
	return h[a].seq < h[b].seq
}
func (h flightHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *flightHeap) Push(x interface{}) { *h = append(*h, x.(flight)) }
func (h *flightHeap) Pop() interface{} {
	old := *h
	n := len(old)
	f := old[n-1]
	*h = old[:n-1]
	return f
}

// wallClock fetches each access in a goroutine and finishes it on the
// session once it is delivered back to the dispatch loop.
type wallClock struct {
	sess  *access.Session
	begun time.Time
	done  chan flight
}

func (c *wallClock) start(f flight) error {
	go func() {
		c.sess.Fetch(&f.Pending)
		c.done <- f
	}()
	return nil
}

func (c *wallClock) next() (flight, error) {
	f := <-c.done
	return f, c.sess.Finish(&f.Pending)
}

// drain waits for every request still in flight and settles it: a
// success is billed, a failure stays unbilled and is not reported — the
// run has already ended.
func (c *wallClock) drain(n int) {
	for ; n > 0; n-- {
		_, _ = c.next()
	}
}

func (c *wallClock) stamp(r *Result) { r.Wall = time.Since(c.begun) }

// run is the one dispatch loop, on either clock.
func (ex *Executor) run(ctx context.Context, p *algo.Problem, clk clock) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ex.B < 1 {
		return nil, fmt.Errorf("parallel: concurrency bound must be >= 1, got %d", ex.B)
	}
	if ex.Sel == nil {
		return nil, fmt.Errorf("parallel: executor requires a selector")
	}
	if err := p.Begin(); err != nil {
		return nil, err
	}
	sess := p.Session
	tab, err := state.NewTable(sess.N(), sess.M(), p.F)
	if err != nil {
		return nil, err
	}
	q := state.NewQueue(tab, sess.NoWildGuesses())
	emitted := make([]bool, sess.N())
	// taskBusy limits each unsatisfied task to one in-flight access:
	// concurrency comes from servicing *distinct* tasks (the paper's
	// observation that any incomplete member of K_P is equally necessary).
	taskBusy := make(map[int]bool, ex.B)
	// Sorted results apply in list order: applyRank is the next rank to
	// apply per list, sortedBuf holds completed-but-out-of-order results.
	applyRank := make([]int, sess.M())
	sortedBuf := make([]map[int]flight, sess.M())
	for i := range sortedBuf {
		sortedBuf[i] = make(map[int]flight)
	}

	var (
		items    []algo.Item
		inflight int
		maxUsed  int
	)

	// dispatchOne scans K_P in rank order and launches the first task's
	// chosen access. It reports whether a dispatch happened.
	dispatchOne := func() (bool, error) {
		for _, cand := range q.TopN(p.K) {
			if taskBusy[cand.ID] {
				continue
			}
			if cand.ID != state.UnseenID && tab.Complete(cand.ID) {
				continue // will be emitted once it surfaces to the top
			}
			choices := algo.NecessaryChoices(tab, sess, cand.ID)
			if len(choices) == 0 {
				continue // everything this task needs is already in flight
			}
			ch := ex.Sel.Choose(tab, sess, cand.ID, choices)
			pend, err := sess.Begin(ch.Kind, ch.Pred, cand.ID)
			if err != nil {
				return false, err
			}
			if err := clk.start(flight{Pending: pend, task: cand.ID}); err != nil {
				return false, err
			}
			taskBusy[cand.ID] = true
			return true, nil
		}
		return false, nil
	}

	applySorted := func(f flight) {
		sortedBuf[f.Pred][f.Rank] = f
		for {
			g, ok := sortedBuf[f.Pred][applyRank[f.Pred]]
			if !ok {
				break
			}
			delete(sortedBuf[f.Pred], applyRank[f.Pred])
			applyRank[f.Pred]++
			tab.ObserveSorted(g.Pred, g.Obj, g.Score)
			if !emitted[g.Obj] && !q.Contains(g.Obj) {
				q.Add(g.Obj)
			}
		}
	}

	loop := func() error {
		for len(items) < p.K {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("parallel: run cancelled: %w", err)
			}
			// Emit every complete candidate that has surfaced to the top; the
			// paper's incremental form of Theorem 1's halting condition.
			for len(items) < p.K {
				top, ok := q.Peek()
				if !ok || top.ID == state.UnseenID || !tab.Complete(top.ID) {
					break
				}
				q.Pop()
				emitted[top.ID] = true
				exact, _ := tab.Exact(top.ID)
				items = append(items, algo.Item{Obj: top.ID, Score: exact, Exact: true})
			}
			if len(items) >= p.K {
				break
			}
			if _, ok := q.Peek(); !ok {
				break // fewer than k objects exist
			}
			// Fill free slots with necessary accesses.
			for inflight < ex.B {
				ok, err := dispatchOne()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				inflight++
				if ex.Obs != nil {
					ex.Obs.InflightChange(+1)
				}
			}
			maxUsed = max(maxUsed, inflight)
			if inflight == 0 {
				return fmt.Errorf("parallel: stuck with no dispatchable access and %d/%d answers", len(items), p.K)
			}
			if ex.Obs != nil && inflight < ex.B {
				ex.Obs.DispatchStall()
			}
			// Complete the earliest access and apply it.
			f, err := clk.next()
			inflight--
			delete(taskBusy, f.task)
			if ex.Obs != nil {
				ex.Obs.InflightChange(-1)
			}
			if err != nil {
				return err
			}
			switch f.Kind {
			case access.SortedAccess:
				applySorted(f)
			case access.RandomAccess:
				tab.ObserveRandom(f.Pred, f.Obj, f.Score)
			}
		}
		return nil
	}

	// Whatever ended the loop, no access outlives the run.
	err = loop()
	clk.drain(inflight)
	if ex.Obs != nil && inflight > 0 {
		ex.Obs.InflightChange(-inflight)
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Items: items, Ledger: sess.Ledger(), MaxUsed: maxUsed}
	clk.stamp(res)
	return res, nil
}
