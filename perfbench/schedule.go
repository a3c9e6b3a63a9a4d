package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	topk "repro"
)

// rng is a splitmix64 generator: deterministic from its seed, free of
// allocation, so drawing a request inside the timed loop costs the system
// under test nothing.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the workload seed and a path
// of integers (pass, slot, ...), so every request's draws depend only on
// its own coordinates, never on how many requests came before it.
func newRNG(seed int64, path ...int) *rng {
	s := mix64(uint64(seed) + 0x9e3779b97f4a7c15)
	for _, p := range path {
		s = mix64(s ^ mix64(uint64(int64(p))+0x632be59bd9b4e019))
	}
	return &rng{s: s}
}

// mix64 is splitmix64's finalizer: a bijective avalanche of 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle permutes xs in place (Fisher-Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// session is one client session: a one-shot query, or a cursor opened
// with the query's k answers and deepened by Pages.
type session struct {
	// Slot and Pass locate the session in the schedule: request i of a
	// run is slot i%passSize of pass i/passSize.
	Slot, Pass int
	SQL        string
	K          int
	// Pages are the cursor's /query/next page sizes (nil for one-shot).
	Pages []int
	// Cols are the dataset columns the query selects, in query order;
	// F is the scoring function over them. The oracle evaluates F on the
	// projected rows.
	Cols []int
	F    topk.ScoreFunc
	// Template identifies a fixed query template (oracle answers are
	// memoized per template); -1 marks a query with fresh weights.
	Template int
}

// Depth is the total number of answers the session asks for.
func (s *session) Depth() int {
	d := s.K
	for _, p := range s.Pages {
		d += p
	}
	return d
}

// Cursor reports whether the session opens a server-side cursor.
func (s *session) Cursor() bool { return s.Pages != nil }

// cursorPages are the two k=10 deepening pages every cursor session asks
// for before closing.
var cursorPages = []int{10, 10}

// cursorEvery makes one session in cursorEvery a cursor.
const cursorEvery = 5

// slotShape is one fixed entry of a pass: which query class and template
// the slot runs and whether it opens a cursor. A pass is a fixed multiset
// of shapes that the seed only permutes, so every seed and every commit
// serve exactly the same mix per pass.
type slotShape struct {
	Class, Template int
	Cursor          bool
}

// expandShapes lists the shapes of one pass and permutes them by the seed.
// With weight nil, every combination appears cursorEvery times and exactly
// one of its copies opens a cursor; otherwise combination i appears
// weight[i] times with its own Cursor flag.
func expandShapes(seed int64, combos []slotShape, weight []int) []slotShape {
	var out []slotShape
	for i, c := range combos {
		if weight != nil {
			for j := 0; j < weight[i]; j++ {
				out = append(out, c)
			}
			continue
		}
		for j := 0; j < cursorEvery; j++ {
			s := c
			s.Cursor = j == cursorEvery-1
			out = append(out, s)
		}
	}
	shuffle(newRNG(seed, -1), out)
	return out
}

// zipfCopies apportions total slots over n ranked items with Zipf(s)
// popularity (P(r) proportional to (r+1)^-s, as math/rand's Zipf with
// v=1), by largest remainder, every item at least once. The counts are
// fixed, so the realized popularity never depends on the seed.
func zipfCopies(n, total int, s float64) []int {
	w := make([]float64, n)
	sum := 0.0
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		sum += w[r]
	}
	counts := make([]int, n)
	rem := make([]float64, n)
	used := 0
	for r := range w {
		exact := w[r] / sum * float64(total-n)
		counts[r] = 1 + int(exact)
		rem[r] = exact - float64(int(exact))
		used += counts[r]
	}
	for ; used < total; used++ {
		best := 0
		for r := range rem {
			if rem[r] > rem[best] {
				best = r
			}
		}
		counts[best]++
		rem[best] = -1
	}
	return counts
}

// columnSubsets lists every subset of m columns with at least min
// members, in a fixed order (by size, then lexicographically).
func columnSubsets(m, min int) [][]int {
	var out [][]int
	for size := min; size <= m; size++ {
		for mask := 0; mask < 1<<m; mask++ {
			var cols []int
			for c := 0; c < m; c++ {
				if mask&(1<<c) != 0 {
					cols = append(cols, c)
				}
			}
			if len(cols) == size {
				out = append(out, cols)
			}
		}
	}
	// Same-size subsets come out in mask order; sort them lexicographically
	// so the template numbering reads naturally.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && len(out[j]) == len(out[j-1]) && lexLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// colName is the SQL name of dataset column c.
func colName(c int) string { return "p" + strconv.Itoa(c+1) }

// columnNames names m columns p1..pm.
func columnNames(m int) []string {
	out := make([]string, m)
	for c := range out {
		out[c] = colName(c)
	}
	return out
}

// plainSQL renders fn(p_a, p_b, ...) stop after k.
func plainSQL(fn string, cols []int, k int) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = colName(c)
	}
	return fmt.Sprintf("select id from db order by %s(%s) stop after %d", fn, strings.Join(names, ", "), k)
}

// freshWeights draws one weight per column on a 1e-4 grid in [0.25,1]
// (7,501 values per weight, so a repeat is rare). The text form is exact,
// so the oracle's function and the server's parsed one weigh identically.
// Keeping the weights within a factor of four bounds how lopsided a query
// gets, which keeps the tail latency a property of the system rather than
// of a few extreme draws.
func freshWeights(r *rng, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(2500+r.intn(7501)) / 10000
	}
	return w
}

// wsumQuery renders a weighted-sum query and its oracle function.
func wsumQuery(cols []int, w []float64, k int) (string, topk.ScoreFunc) {
	terms := make([]string, len(cols))
	for i, c := range cols {
		terms[i] = strconv.FormatFloat(w[i], 'f', -1, 64) + "*" + colName(c)
	}
	sql := fmt.Sprintf("select id from db order by wsum(%s) stop after %d", strings.Join(terms, ", "), k)
	return sql, topk.Weighted(w...)
}

// scheduleBytes renders the first n sessions as the request bodies the
// clients send (one line per session, cursor pages appended), for the
// same-seed-same-bytes determinism check.
func scheduleBytes(w *workload, seed int64, n int) ([]byte, error) {
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		s := w.session(seed, i)
		body, err := json.Marshal(queryBody{SQL: s.SQL, Cursor: s.Cursor()})
		if err != nil {
			return nil, err
		}
		buf.Write(body)
		for _, p := range s.Pages {
			fmt.Fprintf(&buf, "|next:%d", p)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// scheduleDigest hashes scheduleBytes.
func scheduleDigest(w *workload, seed int64, n int) (uint64, error) {
	b, err := scheduleBytes(w, seed, n)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}
