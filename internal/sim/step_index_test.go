package sim

import (
	"testing"

	"manhattanflood/internal/spatialindex"
)

// requireIndexMatchesFreshRebuild asserts that the world's step-maintained
// index is bit-identical to an index freshly counting-sort rebuilt from the
// world's live coordinates: same bucket offsets, same bucket-major ids,
// same CSR coordinate streams, same id-indexed copies and bucket map.
func requireIndexMatchesFreshRebuild(t *testing.T, step int, w *World, ref *spatialindex.Index) {
	t.Helper()
	ref.RebuildXY(w.X(), w.Y())
	ix := w.Index()
	if ix.Len() != ref.Len() {
		t.Fatalf("step %d: Len %d != %d", step, ix.Len(), ref.Len())
	}
	gids, gx, gy := ix.CSR()
	wids, wx, wy := ref.CSR()
	for k := range wids {
		if gids[k] != wids[k] || gx[k] != wx[k] || gy[k] != wy[k] {
			t.Fatalf("step %d: CSR[%d] = (%d, %v, %v), want (%d, %v, %v)",
				step, k, gids[k], gx[k], gy[k], wids[k], wx[k], wy[k])
		}
	}
	for c := 0; c < ref.NumCells(); c++ {
		glo, ghi := ix.CellSpanBounds(c)
		wlo, whi := ref.CellSpanBounds(c)
		if glo != wlo || ghi != whi {
			t.Fatalf("step %d: CellSpanBounds(%d) = [%d, %d), want [%d, %d)", step, c, glo, ghi, wlo, whi)
		}
	}
	gxs, gys := ix.XS(), ix.YS()
	wxs, wys := ref.XS(), ref.YS()
	for i := range wxs {
		if gxs[i] != wxs[i] || gys[i] != wys[i] || ix.Cell(i) != ref.Cell(i) {
			t.Fatalf("step %d: id %d = (%v, %v, cell %d), want (%v, %v, cell %d)",
				step, i, gxs[i], gys[i], ix.Cell(i), wxs[i], wys[i], ref.Cell(i))
		}
	}
}

// The index World.Step maintains (fused classify + RebuildXYCells) must
// stay bit-identical to a fresh rebuild from the live coordinates across
// randomized mobility runs — for the default MRWP model, the paused variant (whose resting
// agents republish unchanged positions) and the random walk, stepped
// sequentially and in parallel, at slow (V/R = 0.04), medium and
// teleport-scale velocities.
func TestStepIndexMatchesFreshRebuild(t *testing.T) {
	cases := []struct {
		name    string
		factory ModelFactory
		v       float64
		workers int
	}{
		{"mrwp_slow_seq", nil, 0.1, 1},
		{"mrwp_slow_parallel", nil, 0.1, 4},
		{"paused_slow_seq", PausedMRWPFactory(6), 0.1, 1},
		{"paused_slow_parallel", PausedMRWPFactory(6), 0.1, 4},
		{"mrwp_medium_seq", nil, 0.3, 1},
		{"mrwp_medium_parallel", nil, 0.3, 4},
		{"mrwp_teleport_seq", nil, 9.0, 1},
		{"paused_medium_seq", PausedMRWPFactory(6), 0.5, 1},
		{"walk_slow_seq", RandomWalkFactory(), 0.1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{N: 600, L: 25, R: 2.5, V: tc.v, Seed: 0xd317a, Workers: tc.workers}
			w, err := NewWorld(p, tc.factory)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := spatialindex.New(p.L, p.R)
			if err != nil {
				t.Fatal(err)
			}
			requireIndexMatchesFreshRebuild(t, -1, w, ref)
			for step := 0; step < 40; step++ {
				w.Step()
				requireIndexMatchesFreshRebuild(t, step, w, ref)
			}
			// A mid-run Reset must land back on a bit-identical index too.
			w.Reset(0xd317a + 1)
			requireIndexMatchesFreshRebuild(t, -2, w, ref)
			for step := 0; step < 10; step++ {
				w.Step()
				requireIndexMatchesFreshRebuild(t, 100+step, w, ref)
			}
		})
	}
}
