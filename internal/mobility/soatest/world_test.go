package soatest

import (
	"fmt"
	"testing"

	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
)

// hideBulk strips a model down to the bare Model interface: the embedded
// interface hides NewPopulation (and ReinitAgent), so a sim.World built
// on it takes the AoS fallback paths — per-agent values, per-agent
// interface calls, classify inside the index.
type hideBulk struct{ mobility.Model }

func aosFactory(inner sim.ModelFactory) sim.ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		m, err := inner(cfg)
		if err != nil {
			return nil, err
		}
		return hideBulk{m}, nil
	}
}

// TestWorldsBitIdentical runs whole simulations twice — once stepping
// the SoA population with the fused advance→classify pass, once with the
// capability hidden, stepping AoS agents and classifying inside the
// index — and requires bit-identical trajectories AND bit-identical
// neighbor-index state (full CSR: ids, coordinates, bucket spans) at
// every step. Covered across all five models, sequential and 4-worker
// stepping, slow and fast agents, and mid-run Reset (pooled reuse).
func TestWorldsBitIdentical(t *testing.T) {
	factories := []struct {
		name    string
		factory sim.ModelFactory
	}{
		{"mrwp", sim.MRWPFactory()},
		{"rwp", sim.RWPFactory()},
		{"random-walk", sim.RandomWalkFactory()},
		{"random-direction", sim.RandomDirectionFactory()},
		{"mrwp-paused", sim.PausedMRWPFactory(2.0)},
	}
	regimes := []struct {
		name    string
		v       float64 // against R = 2.5: 0.1 → small per-step delta, few bucket changes; 0.8 → many
		workers int
	}{
		{"delta-seq", 0.1, 0},
		{"rebuild-seq", 0.8, 0},
		{"delta-par4", 0.1, 4},
		{"rebuild-par4", 0.8, 4},
	}
	for _, f := range factories {
		for _, rg := range regimes {
			t.Run(f.name+"/"+rg.name, func(t *testing.T) {
				p := sim.Params{N: 300, L: 30, R: 2.5, V: rg.v, Seed: 33, Workers: rg.workers}
				soa, err := sim.NewWorld(p, f.factory)
				if err != nil {
					t.Fatal(err)
				}
				aos, err := sim.NewWorld(p, aosFactory(f.factory))
				if err != nil {
					t.Fatal(err)
				}
				if soa.Population() == nil {
					t.Fatal("precondition: SoA world must step a population")
				}
				if aos.Population() != nil {
					t.Fatal("precondition: hidden world must step AoS agents")
				}
				compareWorlds(t, "init", soa, aos)
				for s := 1; s <= 30; s++ {
					soa.Step()
					aos.Step()
					compareWorlds(t, fmt.Sprintf("step %d", s), soa, aos)
				}
				soa.Reset(77)
				aos.Reset(77)
				compareWorlds(t, "reset", soa, aos)
				for s := 1; s <= 15; s++ {
					soa.Step()
					aos.Step()
					compareWorlds(t, fmt.Sprintf("post-reset step %d", s), soa, aos)
				}
			})
		}
	}
}

func compareWorlds(t *testing.T, tag string, a, b *sim.World) {
	t.Helper()
	ax, ay := a.X(), a.Y()
	bx, by := b.X(), b.Y()
	for i := range ax {
		if ax[i] != bx[i] || ay[i] != by[i] {
			t.Fatalf("%s: agent %d position diverges: (%v,%v) vs (%v,%v)",
				tag, i, ax[i], ay[i], bx[i], by[i])
		}
	}
	ai, bi := a.Index(), b.Index()
	aids, axs, ays := ai.CSR()
	bids, bxs, bys := bi.CSR()
	for k := range aids {
		if aids[k] != bids[k] || axs[k] != bxs[k] || ays[k] != bys[k] {
			t.Fatalf("%s: index CSR diverges at position %d", tag, k)
		}
	}
	if ai.NumCells() != bi.NumCells() {
		t.Fatalf("%s: cell counts diverge", tag)
	}
	for c := 0; c < ai.NumCells(); c++ {
		alo, ahi := ai.CellSpanBounds(c)
		blo, bhi := bi.CellSpanBounds(c)
		if alo != blo || ahi != bhi {
			t.Fatalf("%s: bucket %d spans diverge", tag, c)
		}
	}
}
