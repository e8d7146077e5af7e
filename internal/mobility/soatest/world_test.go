package soatest

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/mobility"
	"manhattanflood/internal/sim"
	"manhattanflood/internal/spatialindex"
)

// seedStride mirrors sim.World's per-agent stream split: agent i of a
// world seeded s draws from PCG(s, i+seedStride).
const seedStride = 0x9e3779b97f4a7c15

// refWorld is the AoS reference a sim.World must reproduce: the model's
// NewAgent values, stepped one by one from the world's per-agent seed
// streams, their positions copied into flat X/Y, and a neighbor index
// rebuilt from those with RebuildXY, which classifies inside the index.
type refWorld struct {
	model  refModel
	agents []mobility.Agent
	x, y   []float64
	index  *spatialindex.Index
}

func newRefWorld(t *testing.T, p sim.Params, factory sim.ModelFactory) *refWorld {
	t.Helper()
	m, err := factory(mobility.Config{L: p.L, V: p.V})
	if err != nil {
		t.Fatal(err)
	}
	rm, ok := m.(refModel)
	if !ok {
		t.Fatalf("model %s has no AoS reference form", m.Name())
	}
	ix, err := spatialindex.New(p.L, p.R)
	if err != nil {
		t.Fatal(err)
	}
	rw := &refWorld{
		model:  rm,
		agents: make([]mobility.Agent, p.N),
		x:      make([]float64, p.N),
		y:      make([]float64, p.N),
		index:  ix,
	}
	rw.reset(p.Seed)
	return rw
}

// reset draws every agent afresh from the reseeded streams.
func (rw *refWorld) reset(seed uint64) {
	for i := range rw.agents {
		rw.agents[i] = rw.model.NewAgent(rand.New(rand.NewPCG(seed, uint64(i)+seedStride)))
	}
	rw.sync()
}

func (rw *refWorld) step() {
	for _, a := range rw.agents {
		a.Step()
	}
	rw.sync()
}

func (rw *refWorld) sync() {
	for i, a := range rw.agents {
		p := a.Pos()
		rw.x[i], rw.y[i] = p.X, p.Y
	}
	rw.index.RebuildXY(rw.x, rw.y)
}

// TestWorldsBitIdentical runs whole simulations against the AoS
// reference world — the sim.World stepping its population with the
// fused advance→classify pass, the reference stepping NewAgent values
// and classifying inside the index — and requires bit-identical
// trajectories AND bit-identical neighbor-index state (full CSR: ids,
// coordinates, bucket spans) at every step. Covered across all five
// models, sequential and 4-worker stepping, slow and fast agents, and
// mid-run Reset (pooled reuse).
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
				w, err := sim.NewWorld(p, f.factory)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefWorld(t, p, f.factory)
				compareWorlds(t, "init", w, ref)
				for s := 1; s <= 30; s++ {
					w.Step()
					ref.step()
					compareWorlds(t, fmt.Sprintf("step %d", s), w, ref)
				}
				w.Reset(77)
				ref.reset(77)
				compareWorlds(t, "reset", w, ref)
				for s := 1; s <= 15; s++ {
					w.Step()
					ref.step()
					compareWorlds(t, fmt.Sprintf("post-reset step %d", s), w, ref)
				}
			})
		}
	}
}

func compareWorlds(t *testing.T, tag string, w *sim.World, ref *refWorld) {
	t.Helper()
	wx, wy := w.X(), w.Y()
	for i := range wx {
		if wx[i] != ref.x[i] || wy[i] != ref.y[i] {
			t.Fatalf("%s: agent %d position diverges: world (%v,%v) vs reference (%v,%v)",
				tag, i, wx[i], wy[i], ref.x[i], ref.y[i])
		}
	}
	wi, ri := w.Index(), ref.index
	wids, wxs, wys := wi.CSR()
	rids, rxs, rys := ri.CSR()
	if len(wids) != len(rids) {
		t.Fatalf("%s: index sizes diverge: %d vs %d", tag, len(wids), len(rids))
	}
	for k := range wids {
		if wids[k] != rids[k] || wxs[k] != rxs[k] || wys[k] != rys[k] {
			t.Fatalf("%s: index CSR diverges at position %d", tag, k)
		}
	}
	if wi.NumCells() != ri.NumCells() {
		t.Fatalf("%s: cell counts diverge", tag)
	}
	for c := 0; c < wi.NumCells(); c++ {
		wlo, whi := wi.CellSpanBounds(c)
		rlo, rhi := ri.CellSpanBounds(c)
		if wlo != rlo || whi != rhi {
			t.Fatalf("%s: bucket %d spans diverge", tag, c)
		}
	}
}
