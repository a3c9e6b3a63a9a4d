package topk

// The resume-vs-recompute oracle: the defining property of a cursor is
// that pagination is free of history — Open(k) followed by any sequence of
// Next(delta) calls must produce, in total, byte-identical answers AND a
// byte-identical access ledger to a single fresh run of depth k+sum(delta).
// The suite sweeps the Figure-2 capability matrix for every resumable
// algorithm (fixed-plan NC — the optimizer's h depends on K, so a fixed
// configuration is the precondition for comparing different depths — TA,
// and MPro), with the sharing layer off and on. Sharing uses a fresh layer
// per run so both sides see identical backend state.

import (
	"fmt"
	"reflect"
	"testing"
)

// cursorOracleAlgo is one resumable algorithm configuration under test.
type cursorOracleAlgo struct {
	name string
	opts func(m int) []RunOption
}

func cursorOracleAlgos() []cursorOracleAlgo {
	return []cursorOracleAlgo{
		{"NC-fixed", func(m int) []RunOption {
			h := make([]float64, m)
			for i := range h {
				h[i] = 0.5
			}
			return []RunOption{WithNC(h, nil)}
		}},
		{"TA", func(int) []RunOption { return []RunOption{WithAlgorithm("TA")} }},
		{"MPro", func(int) []RunOption { return []RunOption{WithAlgorithm("MPro")} }},
	}
}

// TestCursorResumeOracle is the satellite's core property test.
func TestCursorResumeOracle(t *testing.T) {
	const (
		n = 80
		m = 2
		k = 4
	)
	// Page plans: ordinary deepening, a zero-delta poll mid-sequence, and
	// an over-ask that runs into exhaustion.
	deltaPlans := [][]int{
		{3, 5},
		{0, 4, 0, 4},
		{1, 1, 1, 1, 1},
	}
	ds := mustGenerateDataset(t, "uniform", n, m, 23)

	completed := 0
	for _, cell := range figure2Cells(m, 10) {
		for _, alg := range cursorOracleAlgos() {
			for _, sharing := range []bool{false, true} {
				for pi, deltas := range deltaPlans {
					name := fmt.Sprintf("%s/%s/plan%d", cell.name, alg.name, pi)
					if sharing {
						name += "/shared"
					}
					t.Run(name, func(t *testing.T) {
						total := k
						for _, d := range deltas {
							total += d
						}
						opts := alg.opts(m)

						// Recompute oracle: one fresh engine, one run of the
						// full depth.
						freshEng, err := NewEngine(matrixBackend(ds, sharing, nil), cell.scn)
						if err != nil {
							t.Skip("cell has no legal access")
						}
						fresh, err := freshEng.Run(Query{F: Min(), K: total}, opts...)
						if err != nil {
							t.Skipf("cell denies an access %s requires: %v", alg.name, err)
						}

						// Resumed: a second engine (and, when sharing, a
						// second cold sharing layer) pages to the same depth.
						pagedEng, err := NewEngine(matrixBackend(ds, sharing, nil), cell.scn)
						if err != nil {
							t.Fatal(err)
						}
						cur, err := pagedEng.Open(Query{F: Min(), K: k}, opts...)
						if err != nil {
							t.Fatalf("Run succeeded but Open failed: %v", err)
						}
						defer cur.Close()
						var items []Item
						page, err := cur.Next(k)
						if err != nil {
							t.Fatal(err)
						}
						items = append(items, page.Items...)
						for _, d := range deltas {
							if page, err = cur.Next(d); err != nil {
								t.Fatal(err)
							}
							items = append(items, page.Items...)
						}

						// The fresh run pages through the same cursor
						// pipeline, so the brute-force oracle keeps a
						// reference outside it.
						scoresMatchOracle(t, ds, Min(), total, items)
						// Byte-identical answers...
						if !reflect.DeepEqual(items, fresh.Items) {
							t.Errorf("paged answers diverge from fresh run:\n paged %v\n fresh %v", items, fresh.Items)
						}
						// ...and a byte-identical bill: same accesses, same
						// order-independent per-predicate counts, same cost.
						if !reflect.DeepEqual(cur.Ledger(), fresh.Ledger) {
							t.Errorf("paged ledger diverges from fresh run:\n paged %+v\n fresh %+v", cur.Ledger(), fresh.Ledger)
						}
						if page.Truncated != fresh.Truncated {
							t.Errorf("paged Truncated=%v, fresh %v", page.Truncated, fresh.Truncated)
						}
						// Exhaustion coda: once every object is emitted,
						// further pages are empty and access-free.
						if cur.Exhausted() {
							before := cur.Ledger()
							extra, err := cur.Next(5)
							if err != nil || len(extra.Items) != 0 {
								t.Errorf("post-exhaustion page: %v items, err %v", len(extra.Items), err)
							}
							if !reflect.DeepEqual(cur.Ledger(), before) {
								t.Error("post-exhaustion page performed accesses")
							}
						}
						completed++
					})
				}
			}
		}
	}
	// The sweep must actually exercise the property across the matrix, not
	// skip its way to vacuous success.
	if completed < 40 {
		t.Fatalf("only %d cell/algorithm/plan combinations completed", completed)
	}
}

// TestCursorScoreRangeOracle extends the oracle to score-range mode: a
// NextUntil(tau) page must equal the ordinal prefix of answers scoring
// >= tau, with the identical bill.
func TestCursorScoreRangeOracle(t *testing.T) {
	const (
		n = 80
		m = 2
	)
	ds := mustGenerateDataset(t, "uniform", n, m, 29)
	oracle := TopKOracle(ds, Min(), 20)
	completed := 0
	for _, cell := range figure2Cells(m, 10) {
		for _, sharing := range []bool{false, true} {
			name := cell.name
			if sharing {
				name += "/shared"
			}
			t.Run(name, func(t *testing.T) {
				// tau sits exactly on the 12th-best true score: the range
				// page must emit precisely 12 answers.
				tau := oracle[11].Score
				opts := []RunOption{WithNC([]float64{0.5, 0.5}, nil)}

				freshEng, err := NewEngine(matrixBackend(ds, sharing, nil), cell.scn)
				if err != nil {
					t.Skip("cell has no legal access")
				}
				fresh12, err := freshEng.Run(Query{F: Min(), K: 12}, opts...)
				if err != nil {
					t.Skipf("cell denies a required access: %v", err)
				}
				fresh13, err := freshEng.Run(Query{F: Min(), K: 13}, opts...)
				if err != nil {
					t.Fatal(err)
				}

				pagedEng, err := NewEngine(matrixBackend(ds, sharing, nil), cell.scn)
				if err != nil {
					t.Fatal(err)
				}
				cur, err := pagedEng.Open(Query{F: Min(), K: 12}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer cur.Close()
				page, err := cur.NextUntil(tau)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(page.Items, fresh12.Items) {
					t.Errorf("score-range page diverges from ordinal prefix:\n range %v\n fresh %v", page.Items, fresh12.Items)
				}
				// The range page's bill sits between the two ordinal depths:
				// it pays for the 12 answers plus whatever it takes to PROVE
				// the boundary (no remaining object reaches tau) — strictly
				// no more than emitting the 13th answer would cost.
				rng := cur.Ledger()
				for i := range rng.SortedCounts {
					if rng.SortedCounts[i] < fresh12.Ledger.SortedCounts[i] || rng.SortedCounts[i] > fresh13.Ledger.SortedCounts[i] ||
						rng.RandomCounts[i] < fresh12.Ledger.RandomCounts[i] || rng.RandomCounts[i] > fresh13.Ledger.RandomCounts[i] {
						t.Errorf("pred %d: range bill (%d,%d) outside [k=12 (%d,%d), k=13 (%d,%d)]", i,
							rng.SortedCounts[i], rng.RandomCounts[i],
							fresh12.Ledger.SortedCounts[i], fresh12.Ledger.RandomCounts[i],
							fresh13.Ledger.SortedCounts[i], fresh13.Ledger.RandomCounts[i])
					}
				}
				// The boundary is not consumed: ordinal paging continues
				// seamlessly with the 13th-best answer, and by then the
				// cumulative bill is byte-identical to a fresh k=13 run —
				// the boundary proof is never paid twice.
				more, err := cur.Next(1)
				if err != nil {
					t.Fatal(err)
				}
				if len(more.Items) != 1 || more.Items[0].Obj != oracle[12].Obj {
					t.Errorf("post-range page = %v, want object %d", more.Items, oracle[12].Obj)
				}
				if !reflect.DeepEqual(cur.Ledger(), fresh13.Ledger) {
					t.Errorf("post-range ledger diverges from fresh k=13:\n range %+v\n fresh %+v", cur.Ledger(), fresh13.Ledger)
				}
				completed++
			})
		}
	}
	if completed < 4 {
		t.Fatalf("only %d score-range cells completed", completed)
	}
}
