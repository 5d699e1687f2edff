package harness

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every experiment in this package is a grid of independent cells —
// each one builds its own machine, its own engine, its own stats — so
// the grid fans out over a worker pool and the rows are assembled from
// the completed cells in index order. Output is byte-identical to a
// serial run: parallelism only changes which host core evaluates a
// cell, never the simulated schedule inside it.

// runCells evaluates n independent cells with up to GOMAXPROCS host
// workers (one per cell when n is smaller) and returns the results in
// cell-index order.
func runCells[T any](n int, run func(i int) T) []T {
	out := make([]T, n)
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = run(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// grid evaluates rows×cols cells and returns [row][col] results.
func grid[T any](rows, cols int, run func(r, c int) T) [][]T {
	flat := runCells(rows*cols, func(i int) T { return run(i/cols, i%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
