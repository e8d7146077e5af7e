package core

import (
	"math"
	"os"
	"testing"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/sim"
)

// TestScaleBitIdentity is the population-scale leg of the parallel ==
// sequential property: a 100k-agent flood at Workers 4 (parallel agent
// advance and parallel sweep, the configuration sparse_flood_100k runs
// at Workers = nproc) must agree bit-for-bit with the sequential flood —
// same informed set and the same LastStepNewlyInformed order — at every
// step of the opening flood phase. The small-world property tests cover
// the regime × worker grid; this one exists because the sweep's shard
// boundaries, the counting sort's scratch sizing and the step's chunked
// advance behave differently when every shard holds thousands of
// buckets, and a bug that only manifests at scale would slip past the
// small grids.
//
// It builds two 100k-agent worlds, so it is opt-in: set
// FLOODSIM_SCALE_TEST=1 (CI runs it via `make test-scale`).
func TestScaleBitIdentity(t *testing.T) {
	if os.Getenv("FLOODSIM_SCALE_TEST") == "" {
		t.Skip("set FLOODSIM_SCALE_TEST=1 to run the 100k-agent identity smoke (make test-scale)")
	}
	const n = 100000
	const steps = 12
	l := math.Sqrt(float64(n))
	seqP := sim.Params{N: n, L: l, R: 4, V: 0.3, Seed: 42}
	parP := seqP
	parP.Workers = 4

	seqW, err := sim.NewWorld(seqP, nil)
	if err != nil {
		t.Fatal(err)
	}
	parW, err := sim.NewWorld(parP, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := seqW.NearestAgent(geom.Pt(l/2, l/2))
	seqF, err := NewFlooding(seqW, src)
	if err != nil {
		t.Fatal(err)
	}
	parF, err := NewFlooding(parW, src)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps && !seqF.Done(); s++ {
		ns := seqF.Step()
		np := parF.Step()
		if ns != np {
			t.Fatalf("step %d: parallel informed %d agents, sequential %d", s, np, ns)
		}
		requireFloodsIdentical(t, s, parF, seqF)
	}
	t.Logf("%d of %d agents informed after %d steps", seqF.InformedCount(), n, steps)
}
