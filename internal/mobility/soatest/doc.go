// Package soatest is the differential test harness pinning the
// bit-identity contract between the two forms of every mobility model:
// the array-of-structs reference agents (NewAgent on each concrete model
// type) and the structure-of-arrays populations
// (mobility.Model.NewPopulation) the simulator steps.
//
// The harness drives both forms in lockstep from identical per-agent RNG
// streams and requires exact equality — positions to the last bit and
// the full hidden kinematic state exposed through
// mobility.Probe (trip progress, leg caches, unit directions, pause
// clocks, turn/way-point counters) — across a randomized matrix of
// models, initialization modes, speeds, pause bounds and seeds, and
// under arbitrary StepRange decompositions. A second layer runs whole
// sim.Worlds against a test-local reference world (the reference agents
// with their own positions and a neighbor index rebuilt from them each
// step) across worker counts, mid-run Reset and slow and fast agents,
// comparing trajectories and the neighbor index's full CSR state.
//
// The package itself exports nothing; it exists so the differential
// tests have a home outside package mobility's own unit tests and can
// exercise the public API exactly as sim does.
package soatest
