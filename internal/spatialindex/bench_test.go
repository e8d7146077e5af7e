package spatialindex

import (
	"math/rand/v2"
	"testing"
)

func benchXY(n int, side float64, seed uint64) (xs, ys []float64) {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4))
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	return xs, ys
}

func benchRebuildXY(b *testing.B, n int, side float64) {
	b.Helper()
	xs, ys := benchXY(n, side, 1)
	ix, err := New(side, 4)
	if err != nil {
		b.Fatal(err)
	}
	ix.RebuildXY(xs, ys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.RebuildXY(xs, ys)
	}
}

// BenchmarkRebuildXY10k measures the SoA counting-sort rebuild (including
// the CSR coordinate fill) at 10000 points.
func BenchmarkRebuildXY10k(b *testing.B) { benchRebuildXY(b, 10000, 100) }

// BenchmarkRebuildXY20k is the flood_step_20k-scale rebuild.
func BenchmarkRebuildXY20k(b *testing.B) { benchRebuildXY(b, 20000, 141.42) }
