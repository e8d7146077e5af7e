package soatest

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"manhattanflood/internal/mobility"
)

var update = flag.Bool("update", false, "rewrite the golden trajectory fixtures")

// goldenCases pins one configuration per model. The fixtures freeze the
// models' exact floating-point trajectories: any change to draw order,
// operation order or geometry — accidental or deliberate — shows up as a
// readable per-agent diff against testdata/<name>.golden. Deliberate
// changes re-record with `go test ./internal/mobility/soatest -run
// Golden -update`.
func goldenCases() []modelCase {
	return []modelCase{
		{"mrwp", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewMRWP(cfg)
		}},
		{"rwp", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRWP(cfg)
		}},
		{"random-walk", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomWalk(cfg)
		}},
		{"random-direction", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewRandomDirection(cfg)
		}},
		{"mrwp-paused", func(cfg mobility.Config) (mobility.Model, error) {
			return mobility.NewPausedMRWP(cfg, 2.0)
		}},
	}
}

const (
	goldenL     = 16.0
	goldenV     = 0.9
	goldenSeed  = 42
	goldenN     = 64
	goldenSteps = 32
)

// goldenSnapshots are the steps at which all agent positions are
// recorded: dense early (where initialization bugs surface) and sparse
// later (where accumulated drift surfaces).
var goldenSnapshots = []int{0, 1, 2, 4, 8, 16, 24, 32}

// renderTrajectory drives the model's SoA population for goldenSteps
// steps and renders the snapshot positions in the fixture format: one
// "agent x y" line per agent per snapshot, %.17g so every float64
// round-trips exactly.
func renderTrajectory(t *testing.T, model mobility.Model) string {
	t.Helper()
	pop := model.NewPopulation(goldenN)
	v := mobility.View{X: make([]float64, goldenN), Y: make([]float64, goldenN)}
	pop.Bind(v)
	for i := 0; i < goldenN; i++ {
		pop.InitAgent(i, rand.New(rand.NewPCG(goldenSeed, uint64(i))))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# model=%s L=%g V=%g seed=%d n=%d\n",
		model.Name(), goldenL, goldenV, goldenSeed, goldenN)
	snap := func(step int) {
		fmt.Fprintf(&b, "step %d\n", step)
		for i := 0; i < goldenN; i++ {
			fmt.Fprintf(&b, "%d %.17g %.17g\n", i, v.X[i], v.Y[i])
		}
	}
	next := 0
	for step := 0; step <= goldenSteps; step++ {
		if step > 0 {
			pop.StepRange(0, goldenN)
		}
		if next < len(goldenSnapshots) && goldenSnapshots[next] == step {
			snap(step)
			next++
		}
	}
	return b.String()
}

// TestGoldenTrajectories locks every model's exact trajectory to its
// committed fixture — and, via the lockstep harness, the AoS form to the
// same bits — so semantic drift cannot land silently.
func TestGoldenTrajectories(t *testing.T) {
	for _, mc := range goldenCases() {
		t.Run(mc.name, func(t *testing.T) {
			model, err := mc.mk(mobility.Config{L: goldenL, V: goldenV})
			if err != nil {
				t.Fatal(err)
			}
			got := renderTrajectory(t, model)
			path := filepath.Join("testdata", mc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to record): %v", err)
			}
			want := string(raw)
			if got == want {
				return
			}
			// Report the first differing line with context, not a wall of
			// bytes: the fixture format is line-oriented precisely so a
			// drifted agent reads as "step S: agent i moved".
			gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
			for k := 0; k < len(gl) && k < len(wl); k++ {
				if gl[k] != wl[k] {
					t.Fatalf("trajectory drifted from fixture at line %d:\n got: %s\nwant: %s",
						k+1, gl[k], wl[k])
				}
			}
			t.Fatalf("trajectory length drifted: %d lines, fixture has %d", len(gl), len(wl))
		})
	}
}

// TestGoldenMatchesAoS re-renders the fixtures from the AoS reference
// agents and requires the identical byte stream: the fixtures pin ONE
// trajectory, not one per form.
func TestGoldenMatchesAoS(t *testing.T) {
	for _, mc := range goldenCases() {
		t.Run(mc.name, func(t *testing.T) {
			model, err := mc.mk(mobility.Config{L: goldenL, V: goldenV})
			if err != nil {
				t.Fatal(err)
			}
			soa := renderTrajectory(t, model)
			v := mobility.View{X: make([]float64, goldenN), Y: make([]float64, goldenN)}
			agents := make([]mobility.Agent, goldenN)
			publish := func() {
				for i, a := range agents {
					p := a.Pos()
					v.X[i], v.Y[i] = p.X, p.Y
				}
			}
			for i := range agents {
				agents[i] = model.(refModel).NewAgent(rand.New(rand.NewPCG(goldenSeed, uint64(i))))
			}
			publish()
			var b strings.Builder
			fmt.Fprintf(&b, "# model=%s L=%g V=%g seed=%d n=%d\n",
				model.Name(), goldenL, goldenV, goldenSeed, goldenN)
			next := 0
			for step := 0; step <= goldenSteps; step++ {
				if step > 0 {
					for _, a := range agents {
						a.Step()
					}
					publish()
				}
				if next < len(goldenSnapshots) && goldenSnapshots[next] == step {
					fmt.Fprintf(&b, "step %d\n", step)
					for i := 0; i < goldenN; i++ {
						fmt.Fprintf(&b, "%d %.17g %.17g\n", i, v.X[i], v.Y[i])
					}
					next++
				}
			}
			if aos := b.String(); aos != soa {
				t.Fatal("AoS render differs from SoA render")
			}
		})
	}
}
