package core

import (
	"fmt"
	"testing"

	"manhattanflood/internal/sim"
)

// Tile-view property of the flooding sweep: the sweep is a pure read of
// the informed flags and the per-bucket uninformed counters, so sweeping
// the grid as the row fragments of a K x K grid of bucket rectangles
// ("tiles") yields the whole-grid sweep's hits, same ids in the same
// bucket-major order. sweepParallel relies on this at its chunk
// boundaries, and a whole-tile frontier skip on the flat index would rely
// on it at tile boundaries. The tests run that check after every step of
// a flood at Workers W, which must stay bit-identical to the sequential
// flood, across both displacement regimes, the chained and paused
// protocols, and a mid-run Reset.
//
// The test names and their tiles/workers legs come from the two-level
// tiled world that this view replaced.

var tileViewFloodGrid = []struct{ tiles, workers int }{
	{1, 0}, {1, 4},
	{2, 0}, {2, 4},
	{4, 0}, {4, 4},
}

// tileCuts returns the K+1 bucket cuts of a K x K tile view of a
// cols x cols grid, with K clamped to cols.
func tileCuts(cols, k int) []int {
	k = min(k, cols)
	cuts := make([]int, k+1)
	for i := range cuts {
		cuts[i] = i * cols / k
	}
	return cuts
}

// recountBucketUninf refreshes f's per-bucket uninformed counters from
// its current uninformed list, exactly as Step does before its sweep.
func recountBucketUninf(f *Flooding) {
	ix := f.w.Index()
	clear(f.bucketUninf)
	for _, i := range f.uninformed {
		f.bucketUninf[ix.Cell(int(i))]++
	}
}

// requireTileSweep sweeps f's current state over the whole grid and over
// the row fragments of a K x K tile view, in global bucket-row order, and
// requires the same hits in the same order.
func requireTileSweep(t *testing.T, step int, f *Flooding, k int) {
	t.Helper()
	ix := f.w.Index()
	cols := ix.Cols()
	recountBucketUninf(f)
	want := f.sweep(ix, 0, ix.NumCells(), nil)
	cuts := tileCuts(cols, k)
	var got []int32
	for by := 0; by < cols; by++ {
		for tx := 0; tx+1 < len(cuts); tx++ {
			got = f.sweep(ix, by*cols+cuts[tx], by*cols+cuts[tx+1], got)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("step %d: tile sweep found %d hits, whole-grid sweep %d", step, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d: tile sweep hit[%d] = %d, whole-grid sweep %d", step, i, got[i], want[i])
		}
	}
}

func TestTiledFloodBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		p       sim.Params
		factory sim.ModelFactory
		opts    []FloodOption
	}{
		// Small per-step displacement (V/R = 0.025), plain one-hop protocol.
		{"delta", sim.Params{N: 1500, L: 30, R: 4, V: 0.1, Seed: 5}, nil, nil},
		// Fast world (V/R = 0.2).
		{"rebuild", sim.Params{N: 1500, L: 30, R: 2, V: 0.4, Seed: 6}, nil, nil},
		// Chained protocol: the closure consumes the merged hit order.
		{"chained", sim.Params{N: 1200, L: 30, R: 3, V: 0.2, Seed: 7}, nil,
			[]FloodOption{WithinStepChaining(true)}},
		// Pause-heavy world: most agents rest through most steps.
		{"paused", sim.Params{N: 1000, L: 30, R: 3, V: 0.1, Seed: 8},
			sim.PausedMRWPFactory(5), []FloodOption{WithSeries(true)}},
	}
	for _, tc := range cases {
		for _, g := range tileViewFloodGrid {
			t.Run(fmt.Sprintf("%s/tiles=%d/workers=%d", tc.name, g.tiles, g.workers), func(t *testing.T) {
				parP := tc.p
				parP.Workers = g.workers
				seqW, err := sim.NewWorld(tc.p, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				parW, err := sim.NewWorld(parP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				seqF, err := NewFlooding(seqW, 0, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				parF, err := NewFlooding(parW, 0, tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 40 && !seqF.Done(); s++ {
					ns := seqF.Step()
					np := parF.Step()
					if ns != np {
						t.Fatalf("step %d: workers=%d informed %d agents, sequential %d", s, g.workers, np, ns)
					}
					requireFloodsIdentical(t, s, parF, seqF)
					requireTileSweep(t, s, parF, g.tiles)
				}
				if seqF.Done() != parF.Done() {
					t.Fatalf("completion disagrees: workers=%d %v, sequential %v", g.workers, parF.Done(), seqF.Done())
				}
				for i, v := range seqF.Series() {
					if parF.Series()[i] != v {
						t.Fatalf("series[%d] = %d, want %d", i, parF.Series()[i], v)
					}
				}
				// Mid-run Reset: pool-style reuse must stay aligned too.
				seqW.Reset(tc.p.Seed + 1)
				parW.Reset(tc.p.Seed + 1)
				if err := seqF.Reset(1); err != nil {
					t.Fatal(err)
				}
				if err := parF.Reset(1); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 20 && !seqF.Done(); s++ {
					seqF.Step()
					parF.Step()
					requireFloodsIdentical(t, 100+s, parF, seqF)
					requireTileSweep(t, 100+s, parF, g.tiles)
				}
			})
		}
	}
}

// TestTiledSweepSkipsInformedTiles pins the soundness premise of a
// whole-tile skip on the flat index: a tile's uninformed occupancy,
// summed from the per-bucket counters, equals the number of uninformed
// agents inside it, and a tile that reads zero yields no sweep hits. In
// the Suburb phase most tiles are fully informed, so the premise must
// also be non-vacuous: some tile reaches zero while the flood is running.
func TestTiledSweepSkipsInformedTiles(t *testing.T) {
	const k = 4
	p := sim.Params{N: 1200, L: 30, R: 3, V: 0.3, Seed: 17}
	w, err := sim.NewWorld(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFlooding(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	sawEmptyTile := false
	for s := 0; s < 60 && !f.Done(); s++ {
		f.Step()
		if f.Done() {
			break
		}
		ix := w.Index()
		cols := ix.Cols()
		cuts := tileCuts(cols, k)
		recountBucketUninf(f)
		for ty := 0; ty+1 < len(cuts); ty++ {
			for tx := 0; tx+1 < len(cuts); tx++ {
				inTile := func(c int) bool {
					bx, by := c%cols, c/cols
					return bx >= cuts[tx] && bx < cuts[tx+1] && by >= cuts[ty] && by < cuts[ty+1]
				}
				want := int32(0)
				for _, i := range f.uninformed {
					if inTile(ix.Cell(int(i))) {
						want++
					}
				}
				got := int32(0)
				for by := cuts[ty]; by < cuts[ty+1]; by++ {
					for _, u := range f.bucketUninf[by*cols+cuts[tx] : by*cols+cuts[tx+1]] {
						got += u
					}
				}
				if got != want {
					t.Fatalf("step %d tile (%d, %d): counters sum to %d uninformed, tile holds %d", s, tx, ty, got, want)
				}
				if got != 0 {
					continue
				}
				sawEmptyTile = true
				for by := cuts[ty]; by < cuts[ty+1]; by++ {
					if hits := f.sweep(ix, by*cols+cuts[tx], by*cols+cuts[tx+1], nil); len(hits) != 0 {
						t.Fatalf("step %d tile (%d, %d): fully informed tile yields hits %v", s, tx, ty, hits)
					}
				}
			}
		}
	}
	if !f.Done() {
		t.Fatal("flooding did not complete within the budget")
	}
	if !sawEmptyTile {
		t.Fatal("no tile ever reached zero uninformed occupancy mid-run; the check is vacuous")
	}
}
