package sim

import (
	"math/rand/v2"
	"testing"

	"manhattanflood/internal/mobility"
)

// aosWrapper strips a model down to the bare Model interface: the embedded
// interface hides NewPopulation (and ReinitAgent), so a World built on it
// steps AoS agent values.
type aosWrapper struct{ mobility.Model }

func aosFactory(inner ModelFactory) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		m, err := inner(cfg)
		if err != nil {
			return nil, err
		}
		return aosWrapper{m}, nil
	}
}

// A model hidden behind aosWrapper must still produce working agents and
// must hide the population capability, so tests that use it really
// exercise the AoS world.
func TestAoSWrapperForwards(t *testing.T) {
	m, err := mobility.NewMRWP(mobility.Config{L: 10, V: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	w := aosWrapper{m}
	if _, ok := mobility.Model(w).(mobility.BulkStepper); ok {
		t.Fatal("wrapper must hide the BulkStepper capability")
	}
	if w.Name() != m.Name() {
		t.Fatal("wrapper must forward Name")
	}
	a := w.NewAgent(rand.New(rand.NewPCG(1, 2)))
	p0 := a.Pos()
	a.Step()
	if a.Pos() == p0 {
		t.Fatal("wrapped agent did not move")
	}
}
