package core

import "math"

// maxAssignment returns a maximum-weight partial injective assignment of
// the rows of w to its columns: out[i] is the column given to row i, or
// -1 when row i is left unassigned. A negative w[i][j] forbids the pair;
// an unassigned row scores 0. Every row has the same number of columns.
//
// It is the Hungarian algorithm with potentials (shortest augmenting
// paths) on the matrix padded to n × n, n = max(rows, columns), with
// cost −w on allowed cells and 0 on forbidden and padding cells: a
// minimum-cost perfect matching there is a maximum-weight partial one
// here, since any partial matching extends to a perfect one through
// zero-cost cells. O(n³); n ≤ k.
func maxAssignment(w [][]float64) []int {
	rows := len(w)
	out := make([]int, rows)
	for i := range out {
		out[i] = -1
	}
	if rows == 0 || len(w[0]) == 0 {
		return out
	}
	cols := len(w[0])
	n := max(rows, cols)
	cost := func(i, j int) float64 { // 0-based
		if i < rows && j < cols && w[i][j] >= 0 {
			return -w[i][j]
		}
		return 0
	}
	// 1-based arrays; column 0 is the virtual root of each augmenting
	// search. rowOf[j] is the row matched to column j (0: none).
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	rowOf := make([]int, n+1)
	way := make([]int, n+1)
	minv := make([]float64, n+1)
	used := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		rowOf[0] = i
		j0 := 0
		for j := range minv {
			minv[j], used[j] = math.Inf(1), false
		}
		for {
			used[j0] = true
			i0, delta, j1 := rowOf[j0], math.Inf(1), 0
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				if cur := cost(i0-1, j-1) - u[i0] - v[j]; cur < minv[j] {
					minv[j], way[j] = cur, j0
				}
				if minv[j] < delta {
					delta, j1 = minv[j], j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[rowOf[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if rowOf[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			rowOf[j0] = rowOf[j1]
			j0 = j1
		}
	}
	for j := 1; j <= cols; j++ {
		if i := rowOf[j] - 1; i >= 0 && i < rows && w[i][j-1] >= 0 {
			out[i] = j - 1
		}
	}
	return out
}
