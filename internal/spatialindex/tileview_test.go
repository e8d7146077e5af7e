package spatialindex

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

// Tile-view property: the flat CSR index, read as a K x K grid of bucket
// rectangles ("tiles") through RowSpan, partitions the points exactly.
// Every tile row yields the ids whose bucket lies in that row of the
// tile, and the row fragments, concatenated in global bucket-row order
// (tile columns left to right), reproduce the flat ids array and its
// coordinate streams. This is the read pattern of any pass sharded by
// bucket rectangle, such as a whole-tile frontier skip built on the flat
// index. The tiles are read by concurrent goroutines, because index
// queries are read-only after a rebuild; `make test-race` checks that.
//
// The test names and their k/workers legs come from the two-level tiled
// index that this view replaced; each test keeps the input pattern it
// stressed there.

// tileViewGrid crosses K in {1, 2, 3, 4} with one reader and four
// concurrent readers. K = 3 does not divide the bucket grid evenly, and
// K = 1000 exceeds it and is clamped to one bucket per tile.
var tileViewGrid = []struct{ k, workers int }{
	{1, 1}, {1, 4},
	{2, 1}, {2, 4},
	{3, 1}, {3, 4},
	{4, 1}, {4, 4},
	{1000, 4},
}

// tileCuts returns the K+1 bucket cuts of a K x K tile view of a
// cols x cols grid, with K clamped to cols. Tile column tx spans bucket
// columns [cuts[tx], cuts[tx+1]), and tile rows likewise.
func tileCuts(cols, k int) []int {
	k = min(k, cols)
	cuts := make([]int, k+1)
	for i := range cuts {
		cuts[i] = i * cols / k
	}
	return cuts
}

// readTileView reads every tile row by row on the given number of
// concurrent readers; frags[tile][r] holds the ids of the tile's r-th
// bucket row.
func readTileView(ix *Index, cuts []int, workers int) [][][]int32 {
	k := len(cuts) - 1
	frags := make([][][]int32, k*k)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for tile := w; tile < k*k; tile += workers {
				tx, ty := tile%k, tile/k
				for by := cuts[ty]; by < cuts[ty+1]; by++ {
					frags[tile] = append(frags[tile], ix.RowSpan(by, cuts[tx], cuts[tx+1]-1))
				}
			}
		}(w)
	}
	wg.Wait()
	return frags
}

// requireTileView checks the tile-view property on ix's current state.
// Each id's bucket is checked against the scalar classifier of its
// coordinates, so the check does not trust the index's own id -> bucket
// map.
func requireTileView(t *testing.T, step int, ix *Index, k, workers int) {
	t.Helper()
	cols := ix.Cols()
	cuts := tileCuts(cols, k)
	kk := len(cuts) - 1
	tileOf := make([]int, cols)
	for i := 0; i < kk; i++ {
		for c := cuts[i]; c < cuts[i+1]; c++ {
			tileOf[c] = i
		}
	}
	frags := readTileView(ix, cuts, workers)
	ids, cx, cy := ix.CSR()
	xs, ys := ix.XS(), ix.YS()
	seen := make([]bool, ix.Len())
	pos := 0
	for by := 0; by < cols; by++ {
		ty := tileOf[by]
		for tx := 0; tx < kk; tx++ {
			tile := ty*kk + tx
			for _, id := range frags[tile][by-cuts[ty]] {
				if pos >= len(ids) || ids[pos] != id {
					t.Fatalf("step %d: tile %d row %d yields id %d at merged position %d, which the flat ids array does not hold there",
						step, tile, by, id, pos)
				}
				if seen[id] {
					t.Fatalf("step %d: id %d read twice", step, id)
				}
				seen[id] = true
				c := ix.bucketOfXY(xs[id], ys[id])
				if c/cols != by || tileOf[c%cols] != tx || ix.Cell(int(id)) != c {
					t.Fatalf("step %d: id %d (bucket %d, Cell %d) read from tile %d row %d",
						step, id, c, ix.Cell(int(id)), tile, by)
				}
				if cx[pos] != xs[id] || cy[pos] != ys[id] {
					t.Fatalf("step %d: CSR coords[%d] = (%v, %v), id %d is at (%v, %v)",
						step, pos, cx[pos], cy[pos], id, xs[id], ys[id])
				}
				pos++
			}
		}
	}
	if pos != ix.Len() {
		t.Fatalf("step %d: tiles hold %d ids, index holds %d", step, pos, ix.Len())
	}
}

func newTileViewIndex(t *testing.T, side, radius float64) *Index {
	t.Helper()
	ix, err := New(side, radius)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ix
}

func randomPoints(rng *rand.Rand, n int, side float64) (xs, ys []float64) {
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	return xs, ys
}

// rebuildCells is the world step's ingestion path: classify once, then
// RebuildXYCells from the precomputed buckets.
func rebuildCells(ix *Index, xs, ys []float64, cells []int32) {
	ix.ClassifyInto(cells, xs, ys)
	ix.RebuildXYCells(xs, ys, cells)
}

// TestTiledRebuildMatchesFlat drives RebuildXY across a perturbed run at
// several population sizes, including the empty and single-point index.
func TestTiledRebuildMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	for _, tc := range tileViewGrid {
		for _, n := range []int{0, 1, 7, 1000} {
			t.Run(fmt.Sprintf("k=%d/workers=%d/n=%d", tc.k, tc.workers, n), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(42, uint64(n)))
				ix := newTileViewIndex(t, side, radius)
				xs, ys := randomPoints(rng, n, side)
				for step := 0; step < 5; step++ {
					ix.RebuildXY(xs, ys)
					requireTileView(t, step, ix, tc.k, tc.workers)
					perturb(rng, xs, ys, side, 2.5)
				}
			})
		}
	}
}

// TestTiledUpdateCellsMatchesFlat drives the per-step cells update
// (classify, then RebuildXYCells) across a perturbed run.
func TestTiledUpdateCellsMatchesFlat(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 600
	for _, tc := range tileViewGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, 3))
			ix := newTileViewIndex(t, side, radius)
			xs, ys := randomPoints(rng, n, side)
			cells := make([]int32, n)
			rebuildCells(ix, xs, ys, cells)
			requireTileView(t, -1, ix, tc.k, tc.workers)
			for step := 0; step < 20; step++ {
				perturb(rng, xs, ys, side, 0.3)
				rebuildCells(ix, xs, ys, cells)
				requireTileView(t, step, ix, tc.k, tc.workers)
			}
		})
	}
}

// TestTiledEmptyTiles clusters the whole population inside one bucket, so
// every other tile is empty and must read as empty, not as stale state.
func TestTiledEmptyTiles(t *testing.T) {
	const side, radius = 16.0, 1.0
	const n = 300
	for _, tc := range tileViewGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(17, 1))
			ix := newTileViewIndex(t, side, radius)
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = 3.0 + rng.Float64()*0.9 // all inside bucket column 3
				ys[i] = 5.0 + rng.Float64()*0.9
			}
			cells := make([]int32, n)
			ix.RebuildXY(xs, ys)
			requireTileView(t, -1, ix, tc.k, tc.workers)
			if got := ix.CellCount(0); got != 0 {
				t.Fatalf("empty bucket 0 reports %d points", got)
			}
			for step := 0; step < 10; step++ {
				perturb(rng, xs, ys, side, 0.2)
				rebuildCells(ix, xs, ys, cells)
				requireTileView(t, step, ix, tc.k, tc.workers)
			}
		})
	}
}

// TestTiledSingleOccupantBuckets places exactly one point per bucket (the
// sparsest non-empty regime: every mover empties one bucket and fills
// another) and marches the population to the right in waves.
func TestTiledSingleOccupantBuckets(t *testing.T) {
	const side, radius = 8.0, 1.0
	for _, tc := range tileViewGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			ix := newTileViewIndex(t, side, radius)
			cols := ix.Cols()
			n := cols * cols
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i%cols) + 0.5
				ys[i] = float64(i/cols) + 0.5
			}
			cells := make([]int32, n)
			ix.RebuildXY(xs, ys)
			for c := 0; c < ix.NumCells(); c++ {
				if got := ix.CellCount(c); got != 1 {
					t.Fatalf("bucket %d holds %d points, want 1", c, got)
				}
			}
			requireTileView(t, -1, ix, tc.k, tc.workers)
			// A 0.3 shift keeps everyone in place; repeated, points cross
			// bucket (and tile) boundaries in waves.
			for step := 0; step < 12; step++ {
				for i := range xs {
					xs[i] = clamp01(xs[i]+0.3, side)
				}
				rebuildCells(ix, xs, ys, cells)
				requireTileView(t, step, ix, tc.k, tc.workers)
			}
		})
	}
}

// TestTiledSeamSpanningPopulation concentrates the population in a thin
// band across the first interior tile seam and jitters it back and forth
// over the boundary, so a large fraction of points changes tile every
// step.
func TestTiledSeamSpanningPopulation(t *testing.T) {
	const side, radius = 10.0, 1.0
	const n = 400
	for _, tc := range tileViewGrid {
		if tc.k < 2 {
			continue // no interior seam to span
		}
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(23, 9))
			ix := newTileViewIndex(t, side, radius)
			seam := float64(tileCuts(ix.Cols(), tc.k)[1]) * radius
			xs := make([]float64, n)
			ys := make([]float64, n)
			for i := range xs {
				xs[i] = clamp01(seam+(rng.Float64()*2-1)*0.4, side)
				ys[i] = rng.Float64() * side
			}
			cells := make([]int32, n)
			ix.RebuildXY(xs, ys)
			requireTileView(t, -1, ix, tc.k, tc.workers)
			for step := 0; step < 20; step++ {
				for i := range xs {
					xs[i] = clamp01(seam+(rng.Float64()*2-1)*0.4, side)
				}
				rebuildCells(ix, xs, ys, cells)
				requireTileView(t, step, ix, tc.k, tc.workers)
			}
		})
	}
}

// TestTiledResizeMidRun grows and shrinks the population between
// rebuilds, through both the RebuildXY and the RebuildXYCells entry
// points.
func TestTiledResizeMidRun(t *testing.T) {
	const side, radius = 10.0, 1.0
	for _, tc := range tileViewGrid {
		t.Run(fmt.Sprintf("k=%d/workers=%d", tc.k, tc.workers), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(29, 2))
			ix := newTileViewIndex(t, side, radius)
			for step, n := range []int{100, 700, 250, 0, 400} {
				xs, ys := randomPoints(rng, n, side)
				ix.RebuildXY(xs, ys)
				requireTileView(t, step, ix, tc.k, tc.workers)
				// And a same-size step on the new population.
				perturb(rng, xs, ys, side, 0.2)
				rebuildCells(ix, xs, ys, make([]int32, n))
				requireTileView(t, step, ix, tc.k, tc.workers)
			}
		})
	}
}
