package spatialindex

import (
	"math/rand/v2"
	"testing"
)

// requireIdentical fails unless a and b hold bit-identical index state:
// starts, bucket-major ids, CSR coordinate streams, id-indexed coordinate
// copies, and the id -> bucket map.
func requireIdentical(t *testing.T, step int, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("step %d: Len %d != %d", step, got.Len(), want.Len())
	}
	gids, gx, gy := got.CSR()
	wids, wx, wy := want.CSR()
	for k := range wids {
		if gids[k] != wids[k] {
			t.Fatalf("step %d: ids[%d] = %d, want %d", step, k, gids[k], wids[k])
		}
		if gx[k] != wx[k] || gy[k] != wy[k] {
			t.Fatalf("step %d: CSR coords[%d] = (%v, %v), want (%v, %v)",
				step, k, gx[k], gy[k], wx[k], wy[k])
		}
	}
	for c := 0; c <= want.NumCells(); c++ {
		if got.starts[c] != want.starts[c] {
			t.Fatalf("step %d: starts[%d] = %d, want %d", step, c, got.starts[c], want.starts[c])
		}
	}
	gxs, gys := got.XS(), got.YS()
	wxs, wys := want.XS(), want.YS()
	for i := range wxs {
		if gxs[i] != wxs[i] || gys[i] != wys[i] {
			t.Fatalf("step %d: XS/YS[%d] = (%v, %v), want (%v, %v)",
				step, i, gxs[i], gys[i], wxs[i], wys[i])
		}
		if got.Cell(i) != want.Cell(i) {
			t.Fatalf("step %d: Cell(%d) = %d, want %d", step, i, got.Cell(i), want.Cell(i))
		}
	}
}

// perturb displaces each point by at most maxStep per coordinate, clamped
// to the square — a synthetic mobility step.
func perturb(rng *rand.Rand, xs, ys []float64, side, maxStep float64) {
	for i := range xs {
		xs[i] += (rng.Float64()*2 - 1) * maxStep
		ys[i] += (rng.Float64()*2 - 1) * maxStep
		xs[i] = clamp01(xs[i], side)
		ys[i] = clamp01(ys[i], side)
	}
}

func clamp01(v, side float64) float64 {
	if v < 0 {
		return 0
	}
	if v > side {
		return side
	}
	return v
}
