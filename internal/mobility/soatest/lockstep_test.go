package soatest

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/mobility"
)

// refModel is a model together with its AoS reference form: every model
// in package mobility offers NewAgent as a method on its concrete type.
type refModel interface {
	mobility.Model
	NewAgent(rng *rand.Rand) mobility.Agent
}

// modelCase builds one model variant under a given (L, V) configuration.
type modelCase struct {
	name string
	mk   func(cfg mobility.Config) (mobility.Model, error)
}

// modelMatrix enumerates every model variant the harness drives: all
// five models, every initialization mode, and two pause bounds.
func modelMatrix() []modelCase {
	return []modelCase{
		{"mrwp-stationary", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg)
		}},
		{"mrwp-uniform", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg, mobility.WithInit(mobility.InitUniform))
		}},
		{"mrwp-theorem12", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg, mobility.WithInit(mobility.InitTheorem12))
		}},
		{"rwp-stationary", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRWP(cfg)
		}},
		{"rwp-uniform", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRWP(cfg, mobility.WithRWPInit(mobility.InitUniform))
		}},
		{"random-walk", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomWalk(cfg)
		}},
		{"random-direction", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomDirection(cfg)
		}},
		{"mrwp-paused-short", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewPausedMRWP(cfg, 0.5)
		}},
		{"mrwp-paused-long", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewPausedMRWP(cfg, 4.0)
		}},
	}
}

// lockstep holds the two forms of one model's agents, driven from
// identical per-agent RNG streams, plus their separate views: the
// population writes pv itself, the harness copies each agent's Pos into
// av.
type lockstep struct {
	n      int
	model  refModel
	agents []mobility.Agent
	pop    mobility.Population
	av, pv mobility.View
}

func newLockstep(t *testing.T, model mobility.Model, n int, seed uint64) *lockstep {
	t.Helper()
	rm, ok := model.(refModel)
	if !ok {
		t.Fatalf("model %s has no AoS reference form", model.Name())
	}
	ls := &lockstep{
		n:      n,
		model:  rm,
		agents: make([]mobility.Agent, n),
		pop:    model.NewPopulation(n),
		av:     mobility.View{X: make([]float64, n), Y: make([]float64, n)},
		pv:     mobility.View{X: make([]float64, n), Y: make([]float64, n)},
	}
	if ls.pop.Len() != n {
		t.Fatalf("population Len = %d, want %d", ls.pop.Len(), n)
	}
	ls.pop.Bind(ls.pv)
	for i := 0; i < n; i++ {
		// Two independent copies of the SAME stream: any divergence in
		// draw consumption between the forms desynchronizes everything
		// downstream and the comparison fails loudly.
		ls.init(i, seed)
	}
	return ls
}

// init draws agent i of both forms from two independent copies of the
// SAME stream: any divergence in draw consumption between the forms
// desynchronizes everything downstream and the comparison fails loudly.
func (ls *lockstep) init(i int, seed uint64) {
	ls.agents[i] = ls.model.NewAgent(rand.New(rand.NewPCG(seed, uint64(i))))
	ls.publish(i)
	ls.pop.InitAgent(i, rand.New(rand.NewPCG(seed, uint64(i))))
}

// publish copies AoS agent i's position into its slot of av.
func (ls *lockstep) publish(i int) {
	p := ls.agents[i].Pos()
	ls.av.X[i], ls.av.Y[i] = p.X, p.Y
}

// compare requires the two forms to be in bit-identical states: view
// coordinates and full probed kinematic state per agent.
func (ls *lockstep) compare(t *testing.T, tag string) {
	t.Helper()
	pp := ls.pop.(mobility.PopProber)
	for i := 0; i < ls.n; i++ {
		if ls.av.X[i] != ls.pv.X[i] || ls.av.Y[i] != ls.pv.Y[i] {
			t.Fatalf("%s: agent %d position diverges: AoS (%v,%v) vs SoA (%v,%v)",
				tag, i, ls.av.X[i], ls.av.Y[i], ls.pv.X[i], ls.pv.Y[i])
		}
		ap := ls.agents[i].(mobility.Prober).Probe()
		sp := pp.ProbeAgent(i)
		if ap != sp {
			t.Fatalf("%s: agent %d state diverges:\nAoS %+v\nSoA %+v", tag, i, ap, sp)
		}
	}
}

// step advances both forms one time unit. The population's range is cut
// at the given split points, exercising arbitrary StepRange
// decompositions (the world steps shards and fuse-chunks, never always
// the full range).
func (ls *lockstep) step(splits []int) {
	for i, a := range ls.agents {
		a.Step()
		ls.publish(i)
	}
	lo := 0
	for _, s := range splits {
		if s > lo && s < ls.n {
			ls.pop.StepRange(lo, s)
			lo = s
		}
	}
	ls.pop.StepRange(lo, ls.n)
}

// TestLockstepBitIdentical is the core differential sweep: every model
// variant, three speed regimes (within-leg fast path, corner-heavy,
// multi-trip chaining), two seeds, 50 steps, randomized StepRange splits
// — AoS and SoA must agree to the last bit at every step.
func TestLockstepBitIdentical(t *testing.T) {
	const l = 20.0
	const n = 48
	const steps = 50
	for _, mc := range modelMatrix() {
		for _, v := range []float64{0.02, 0.9, 7.5} {
			for _, seed := range []uint64{1, 424242} {
				name := fmt.Sprintf("%s/v=%g/seed=%d", mc.name, v, seed)
				t.Run(name, func(t *testing.T) {
					model, err := mc.mk(mobility.Config{L: l, V: v})
					if err != nil {
						t.Fatal(err)
					}
					ls := newLockstep(t, model, n, seed)
					ls.compare(t, "init")
					srng := rand.New(rand.NewPCG(seed, 0xdecaf))
					for s := 1; s <= steps; s++ {
						// 0-3 random split points per step.
						splits := make([]int, srng.IntN(4))
						for k := range splits {
							splits[k] = srng.IntN(n)
						}
						ls.step(splits)
						ls.compare(t, fmt.Sprintf("step %d", s))
					}
				})
			}
		}
	}
}

// TestLockstepReinit pins the pooled-reuse contract: re-drawing the
// population in place from a fresh seed (InitAgent over a dirty slot)
// matches fresh AoS agents drawn from the same reseeded streams
// bit for bit, counters included.
func TestLockstepReinit(t *testing.T) {
	for _, mc := range modelMatrix() {
		t.Run(mc.name, func(t *testing.T) {
			model, err := mc.mk(mobility.Config{L: 12, V: 1.1})
			if err != nil {
				t.Fatal(err)
			}
			const n = 32
			ls := newLockstep(t, model, n, 7)
			for s := 0; s < 20; s++ {
				ls.step(nil)
			}
			for i := 0; i < n; i++ {
				ls.init(i, 99)
			}
			ls.compare(t, "reinit")
			for s := 1; s <= 20; s++ {
				ls.step([]int{n / 3, 2 * n / 3})
				ls.compare(t, fmt.Sprintf("post-reinit step %d", s))
			}
		})
	}
}

// TestBindValidates pins Population.Bind's size invariant.
func TestBindValidates(t *testing.T) {
	model, err := mobility.NewMRWP(mobility.Config{L: 10, V: 1})
	if err != nil {
		t.Fatal(err)
	}
	pop := model.NewPopulation(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Bind with mismatched view sizes did not panic")
		}
	}()
	pop.Bind(mobility.View{X: make([]float64, 4), Y: make([]float64, 8)})
}
