package sim

import (
	"fmt"
	"testing"

	"manhattanflood/internal/spatialindex"
)

// World-level tile-view property: a world stepped at Workers W is
// bit-identical to the sequential world at every step — same agent
// positions and the same full neighbor-index state — across slow and
// fast agents, the paused model and a mid-run Reset, and its index, read
// as a K x K grid of bucket rectangles ("tiles") through RowSpanBounds,
// holds exactly the agents whose bucket lies in each tile.
//
// The test names and their tiles/workers legs come from the two-level
// tiled world that this view replaced.

var tileViewWorldGrid = []struct{ tiles, workers int }{
	{1, 0}, {1, 4},
	{2, 0}, {2, 4},
	{4, 0}, {4, 4},
}

// requireTileOccupancy checks that every tile of a K x K view of w's
// index (K clamped to the bucket grid) spans as many CSR positions as
// there are agents in its buckets.
func requireTileOccupancy(t *testing.T, step int, w *World, k int) {
	t.Helper()
	ix := w.Index()
	cols := ix.Cols()
	k = min(k, cols)
	cuts := make([]int, k+1)
	tileOf := make([]int, cols) // bucket column or row -> tile column or row
	for i := 0; i < k; i++ {
		cuts[i+1] = (i + 1) * cols / k
		for b := cuts[i]; b < cuts[i+1]; b++ {
			tileOf[b] = i
		}
	}
	want := make([]int32, k*k)
	for i := 0; i < w.N(); i++ {
		c := ix.Cell(i)
		want[tileOf[c/cols]*k+tileOf[c%cols]]++
	}
	for tile := range want {
		tx, ty := tile%k, tile/k
		got := int32(0)
		for by := cuts[ty]; by < cuts[ty+1]; by++ {
			lo, hi := ix.RowSpanBounds(by, cuts[tx], cuts[tx+1]-1)
			got += hi - lo
		}
		if got != want[tile] {
			t.Fatalf("step %d: tile %d spans %d CSR positions, holds %d agents", step, tile, got, want[tile])
		}
	}
}

func TestTiledWorldBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		base    Params
		factory ModelFactory
	}{
		// V/R = 0.025: small per-step delta, few agents change bucket.
		{"delta", Params{N: 2000, L: 40, R: 4, V: 0.1, Seed: 99}, nil},
		// V/R = 0.2: heavy bucket traffic every step.
		{"rebuild", Params{N: 2000, L: 40, R: 2, V: 0.4, Seed: 99}, nil},
		// Paused model: most agents rest through most steps.
		{"paused", Params{N: 1500, L: 40, R: 4, V: 0.1, Seed: 41}, PausedMRWPFactory(3)},
	}
	for _, tc := range cases {
		for _, g := range tileViewWorldGrid {
			t.Run(fmt.Sprintf("%s/tiles=%d/workers=%d", tc.name, g.tiles, g.workers), func(t *testing.T) {
				parP := tc.base
				parP.Workers = g.workers
				seq, err := NewWorld(tc.base, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				par, err := NewWorld(parP, tc.factory)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := spatialindex.New(tc.base.L, tc.base.R)
				if err != nil {
					t.Fatal(err)
				}
				check := func(step int) {
					t.Helper()
					for i := 0; i < seq.N(); i++ {
						if par.Position(i) != seq.Position(i) {
							t.Fatalf("step %d agent %d: position %v, sequential %v",
								step, i, par.Position(i), seq.Position(i))
						}
					}
					requireIndexMatchesFreshRebuild(t, step, par, ref)
					requireTileOccupancy(t, step, par, g.tiles)
				}
				check(-1)
				for s := 0; s < 25; s++ {
					seq.Step()
					par.Step()
					check(s)
				}
				// Mid-run Reset must land both worlds on the same fresh
				// trajectory.
				seq.Reset(tc.base.Seed + 1)
				par.Reset(tc.base.Seed + 1)
				check(-2)
				for s := 0; s < 15; s++ {
					seq.Step()
					par.Step()
					check(100 + s)
				}
			})
		}
	}
}

// TestTiledParamsValidate: a negative worker count is rejected, and one
// far beyond the population is accepted and steps bit-identically to the
// sequential world.
func TestTiledParamsValidate(t *testing.T) {
	p := Params{N: 5, L: 10, R: 1, V: 0.2, Workers: -1}
	if err := p.Validate(); err == nil {
		t.Error("want Workers error")
	}
	seq, err := NewWorld(Params{N: 5, L: 10, R: 1, V: 0.2, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewWorld(Params{N: 5, L: 10, R: 1, V: 0.2, Seed: 3, Workers: 10000}, nil)
	if err != nil {
		t.Fatalf("oversized Workers should be accepted, got %v", err)
	}
	for s := 0; s < 10; s++ {
		seq.Step()
		big.Step()
		for i := 0; i < seq.N(); i++ {
			if big.Position(i) != seq.Position(i) {
				t.Fatalf("step %d agent %d: position %v, sequential %v", s, i, big.Position(i), seq.Position(i))
			}
		}
	}
}
