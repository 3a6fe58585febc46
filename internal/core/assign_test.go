package core

import (
	"math"
	"math/rand"
	"testing"
)

// bruteAssignment is the maximum weight of a partial injective
// assignment of w's rows to its columns, by exhaustive search.
func bruteAssignment(w [][]float64, row int, used []bool) float64 {
	if row == len(w) {
		return 0
	}
	best := bruteAssignment(w, row+1, used) // row left unassigned
	for j, x := range w[row] {
		if x < 0 || used[j] {
			continue
		}
		used[j] = true
		best = max(best, x+bruteAssignment(w, row+1, used))
		used[j] = false
	}
	return best
}

// TestMaxAssignmentOptimal checks the Hungarian kernel — the one
// assignment routine both ParaMatch's exact step and ReferenceMatch run
// on — against exhaustive search on random rectangular matrices with
// forbidden cells, and checks that what it returns is an assignment.
func TestMaxAssignmentOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		rows, cols := rng.Intn(6), 1+rng.Intn(6)
		w := make([][]float64, rows)
		for i := range w {
			w[i] = make([]float64, cols)
			for j := range w[i] {
				w[i][j] = -1
				if rng.Intn(3) > 0 {
					// Few distinct values, so ties are common.
					w[i][j] = float64(rng.Intn(4)) / 4
				}
			}
		}
		got := maxAssignment(w)
		if len(got) != rows {
			t.Fatalf("trial %d: %d rows assigned, want %d", trial, len(got), rows)
		}
		sum, taken := 0.0, make(map[int]bool)
		for i, j := range got {
			if j < 0 {
				continue
			}
			if j >= cols || w[i][j] < 0 || taken[j] {
				t.Fatalf("trial %d: row %d given column %d of %v (taken %v)", trial, i, j, w, taken)
			}
			taken[j] = true
			sum += w[i][j]
		}
		if want := bruteAssignment(w, 0, make([]bool, cols)); math.Abs(sum-want) > 1e-9 {
			t.Fatalf("trial %d: assignment scores %v, optimum %v on %v", trial, sum, want, w)
		}
	}
}
