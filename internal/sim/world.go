// Package sim provides the discrete-time simulation engine: a World of n
// agents driven by a mobility model in lockstep, with a fixed-radius
// neighbor index kept in sync every step and deterministic seeding.
//
// The engine is deliberately protocol-agnostic; the flooding process (the
// paper's subject) lives in internal/core and observes the World through
// its accessors.
//
// # Structure-of-arrays layout
//
// The World stores agent positions as two flat float64 slices (one per
// coordinate) rather than a []geom.Point: the Monte-Carlo sweeps that
// dominate the simulator's runtime stream X before (or instead of) Y in
// their distance tests, and the split layout halves the memory traffic of
// those loops. ALL mutable agent state — not just positions — lives in
// the model's mobility.Population, flat per-model slices: the world binds
// the population to its X/Y view and steps it in batched range loops with
// no per-agent interface call at all, then classifies the fresh positions
// into grid buckets chunk-by-chunk while they are still cache-hot (the
// fused advance→classify pass, internal/kernel.Buckets) and feeds the
// precomputed bucket ids straight to the neighbor index's counting sort
// (spatialindex.Index.RebuildXYCells) — no second per-agent sweep. The
// models' per-agent reference values (NewAgent) never enter a World;
// internal/mobility/soatest holds every population to them bit for bit.
// X and Y expose the live slices (valid snapshots only until the next
// Step/Reset); Positions allocates a point snapshot for cold paths
// (traces, examples) that remains valid forever.
//
// Every step ends with a full rebuild of the neighbor index, whatever the
// model or speed: one index path, which is also the bit-identity
// reference every consumer is tested against.
//
// # Reset and world pooling
//
// Reset re-draws every agent from a fresh seed in place — reusing the
// model, the per-agent RNGs, the position slices, and the neighbor index —
// and is bit-identical to constructing a new World with the same
// parameters. Trial sweeps (internal/experiments) pool one World (plus one
// flooding process) per worker and Reset it between trials, which removes
// every per-trial allocation; see experiments.floodTrials.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"manhattanflood/internal/geom"
	"manhattanflood/internal/graph"
	"manhattanflood/internal/mobility"
	"manhattanflood/internal/panicsafe"
	"manhattanflood/internal/spatialindex"
)

// Params configures a World.
type Params struct {
	// N is the number of agents, N >= 1.
	N int
	// L is the square side length.
	L float64
	// R is the transmission radius (used to size the neighbor index).
	R float64
	// V is the agent speed per time unit.
	V float64
	// Seed drives all randomness; identical Params yield identical runs.
	Seed uint64
	// Workers sets the number of goroutines used to step agents. 0 or 1
	// steps sequentially. Because every agent owns an independent RNG
	// stream and writes only its own slot, parallel stepping is exactly
	// deterministic and bit-identical to sequential stepping.
	Workers int
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("sim: N must be at least 1, got %d", p.N)
	}
	if p.L <= 0 || math.IsNaN(p.L) || math.IsInf(p.L, 0) {
		return fmt.Errorf("sim: L must be positive and finite, got %v", p.L)
	}
	if p.R <= 0 || math.IsNaN(p.R) || math.IsInf(p.R, 0) {
		return fmt.Errorf("sim: R must be positive and finite, got %v", p.R)
	}
	if p.V <= 0 || math.IsNaN(p.V) || math.IsInf(p.V, 0) {
		return fmt.Errorf("sim: V must be positive and finite, got %v", p.V)
	}
	if p.Workers < 0 {
		return fmt.Errorf("sim: Workers must be non-negative, got %d", p.Workers)
	}
	return nil
}

// ModelFactory builds a mobility model for a World's (L, V); it lets the
// caller choose the model and its options without sim importing the choice.
type ModelFactory func(cfg mobility.Config) (mobility.Model, error)

// MRWPFactory is the default factory: the paper's Manhattan Random
// Way-Point model with stationary (perfect-simulation) initialization.
func MRWPFactory(opts ...mobility.MRWPOption) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewMRWP(cfg, opts...)
	}
}

// RWPFactory builds the straight-line RWP baseline.
func RWPFactory(opts ...mobility.RWPOption) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRWP(cfg, opts...)
	}
}

// PausedMRWPFactory builds the MRWP variant with Uniform(0, maxPause)
// way-point pauses, stationary-initialized.
func PausedMRWPFactory(maxPause float64) ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewPausedMRWP(cfg, maxPause)
	}
}

// RandomWalkFactory builds the random-walk baseline.
func RandomWalkFactory() ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRandomWalk(cfg)
	}
}

// RandomDirectionFactory builds the random-direction baseline.
func RandomDirectionFactory() ModelFactory {
	return func(cfg mobility.Config) (mobility.Model, error) {
		return mobility.NewRandomDirection(cfg)
	}
}

// seedStride separates per-agent PCG streams split from the world seed.
const seedStride = 0x9e3779b97f4a7c15

// World is a population of agents stepped in lockstep.
type World struct {
	params Params
	model  mobility.Model
	pop    mobility.Population // all mutable agent state; positions live in x/y
	cells  []int32             // fused classify output: per-agent bucket ids
	rngs   []*rand.Rand
	pcgs   []*rand.PCG
	x, y   []float64 // SoA positions, indexed by agent id
	index  *spatialindex.Index
	step   int
	// catch forwards panics out of the parallel stepping workers onto the
	// goroutine that called Step, so a poisoned agent fails its trial with
	// a diagnosable report instead of crashing the process. A field so the
	// parallel step stays allocation-free.
	catch panicsafe.Catcher
	// stepHook, when set (SetStepHook), runs at the very end of Step, after
	// the index sync and the step-counter increment: the X/Y slices and the
	// neighbor index are consistent for the step just completed. It is the
	// observation seam used by the public recording API (trace capture);
	// protocol layers that already observe each step (internal/core) do not
	// need it.
	stepHook func()
}

// NewWorld creates a world of p.N agents using the given mobility model
// factory (nil means MRWPFactory()).
func NewWorld(p Params, factory ModelFactory) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		factory = MRWPFactory()
	}
	model, err := factory(mobility.Config{L: p.L, V: p.V})
	if err != nil {
		return nil, fmt.Errorf("sim: building model: %w", err)
	}
	ix, err := spatialindex.New(p.L, p.R)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	w := &World{
		params: p,
		model:  model,
		pop:    model.NewPopulation(p.N),
		cells:  make([]int32, p.N),
		rngs:   make([]*rand.Rand, p.N),
		pcgs:   make([]*rand.PCG, p.N),
		x:      make([]float64, p.N),
		y:      make([]float64, p.N),
		index:  ix,
	}
	w.pop.Bind(mobility.View{X: w.x, Y: w.y})
	for i := range w.rngs {
		// Independent per-agent PCG streams split from the world seed.
		w.pcgs[i] = rand.NewPCG(p.Seed, uint64(i)+seedStride)
		w.rngs[i] = rand.New(w.pcgs[i])
		w.pop.InitAgent(i, w.rngs[i]) // publishes the initial position
	}
	w.index.RebuildXY(w.x, w.y)
	return w, nil
}

// Reset re-draws every agent from the given seed in place, reusing the
// model, the per-agent RNGs, the position slices and the neighbor index.
// After Reset the world is bit-identical to a fresh NewWorld with the same
// parameters and that seed: Reset(s) followed by any step sequence yields
// exactly the trajectories of a new world seeded s. Time restarts at 0.
// Previously returned Positions snapshots are unaffected; the live X/Y
// slices and the Index are rebuilt in place.
func (w *World) Reset(seed uint64) {
	w.params.Seed = seed
	for i := range w.rngs {
		// InitAgent re-draws slot i in place from the reseeded stream,
		// consuming exactly the draws NewWorld's InitAgent did.
		w.pcgs[i].Seed(seed, uint64(i)+seedStride)
		w.pop.InitAgent(i, w.rngs[i])
	}
	w.step = 0
	w.index.RebuildXY(w.x, w.y)
}

// Params returns the world's parameters.
func (w *World) Params() Params { return w.params }

// ModelName returns the mobility model's name.
func (w *World) ModelName() string { return w.model.Name() }

// N returns the number of agents.
func (w *World) N() int { return len(w.x) }

// Time returns the number of steps taken so far.
func (w *World) Time() int { return w.step }

// Step advances every agent by one time unit and rebuilds the neighbor
// index from the fresh positions, handing it the bucket ids the fused
// advance→classify pass already computed. With Params.Workers > 1 the
// agent moves run on that many goroutines; the result is bit-identical
// to sequential stepping because agents are fully independent and each
// writes only its own slots.
func (w *World) Step() {
	n := len(w.x)
	if w.params.Workers > 1 && n >= 2*w.params.Workers {
		w.advanceParallel()
	} else {
		w.advance(0, n)
	}
	w.index.RebuildXYCells(w.x, w.y, w.cells)
	w.step++
	if w.stepHook != nil {
		w.stepHook()
	}
}

// SetStepHook installs (or, with nil, removes) a function invoked at the
// end of every Step, once the positions, neighbor index and step counter
// all reflect the completed step. The hook runs on the goroutine that
// called Step and must not mutate the world; it may read the live X/Y
// slices. At most one hook is supported — callers that need fan-out
// compose it themselves.
func (w *World) SetStepHook(h func()) { w.stepHook = h }

// fuseChunk is the advance→classify granularity of the population step:
// the world steps this many agents, then immediately classifies their
// fresh coordinates into grid buckets while they are still in L1/L2 (two
// 8 KiB coordinate spans per chunk). One chunk is large enough that the
// classify kernel runs at full vector width and the loop overhead
// vanishes, and small enough that the positions never round-trip
// through memory between the advance and the classify.
const fuseChunk = 1024

// advance steps agents lo..hi-1 and runs the fused classify pass
// over them, chunk by chunk, so their cells entries are fresh when Step
// hands the buffer to the index.
func (w *World) advance(lo, hi int) {
	for clo := lo; clo < hi; clo += fuseChunk {
		chi := min(clo+fuseChunk, hi)
		w.pop.StepRange(clo, chi)
		w.index.ClassifyInto(w.cells[clo:chi], w.x[clo:chi], w.y[clo:chi])
	}
}

// advanceParallel shards advance over Params.Workers goroutines. Shards
// own disjoint index ranges, so the classify writes race-free into the
// shared cells buffer.
func (w *World) advanceParallel() {
	workers := w.params.Workers
	n := len(w.x)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	shard := 0
	for start := 0; start < n; start += chunk {
		end := min(start+chunk, n)
		sh := shard
		shard++
		wg.Add(1)
		go func(sh, lo, hi int) {
			defer wg.Done()
			defer w.catch.Recover(sh)
			w.advance(lo, hi)
		}(sh, start, end)
	}
	wg.Wait()
	w.catch.Rethrow()
}

// Position returns agent i's current position.
func (w *World) Position(i int) geom.Point { return geom.Point{X: w.x[i], Y: w.y[i]} }

// X returns the live X-coordinate slice, indexed by agent id. It is
// rewritten in place by Step and Reset; callers needing a stable snapshot
// use Positions.
func (w *World) X() []float64 { return w.x }

// Y returns the live Y-coordinate slice, indexed by agent id.
func (w *World) Y() []float64 { return w.y }

// Positions returns a freshly allocated snapshot of all agent positions.
// The snapshot stays valid (and unchanged) across Step and Reset calls; it
// is the compatibility accessor for traces, examples and cold paths — hot
// loops read X/Y or the index's CSR coordinate spans instead.
func (w *World) Positions() []geom.Point {
	out := make([]geom.Point, len(w.x))
	for i := range out {
		out[i] = geom.Point{X: w.x[i], Y: w.y[i]}
	}
	return out
}

// Population returns the world's SoA population (for probe-based
// introspection and tests).
func (w *World) Population() mobility.Population { return w.pop }

// Index returns the neighbor index for the current step. It is valid until
// the next Step call.
func (w *World) Index() *spatialindex.Index { return w.index }

// SnapshotGraph builds the disk graph G_t of the current step. The graph
// copies the coordinates (in its index rebuild), so it remains a
// consistent snapshot across future Step and Reset calls.
func (w *World) SnapshotGraph() (*graph.Disk, error) {
	return graph.NewDiskXY(w.x, w.y, w.params.L, w.params.R)
}

// NearestAgent returns the id of the agent closest to pt (ties broken by
// lowest id). It scans all agents; intended for source placement, not hot
// loops.
func (w *World) NearestAgent(pt geom.Point) int {
	best, bestD := 0, math.Inf(1)
	for i := range w.x {
		dx, dy := w.x[i]-pt.X, w.y[i]-pt.Y
		if d := dx*dx + dy*dy; d < bestD {
			best, bestD = i, d
		}
	}
	return best
}
