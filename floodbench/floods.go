package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	manhattan "manhattanflood"
	"manhattanflood/internal/cells"
	"manhattanflood/internal/core"
	"manhattanflood/internal/sim"
)

// floodSpec is the input of a flood workload: a configuration whose Seed
// and Workers are filled in per flood, the flood options, and what the
// traced leg needs to make the same calls manhattan.New and Flood make.
type floodSpec struct {
	cfg  manhattan.Config
	opts manhattan.FloodOptions
	// radii, when set, cycles the radius through these values by flood
	// index (the service's swept cells).
	radii []float64
	// record adds a recorded flood and its replay to every seed.
	record bool
	// factory is the model factory manhattan.New picks for cfg.
	factory sim.ModelFactory
}

// sparseFlood is the regime far below the connectivity threshold: mean
// degree about 3 and no Central Zone cell, so the flood is carried by
// agents moving across the square.
func sparseFlood(tiny bool) floodSpec {
	n := 100000
	if tiny {
		n = 1500
	}
	return floodSpec{
		cfg:     manhattan.Config{N: n, L: 2 * math.Sqrt(float64(n)), R: 4, V: 0.4},
		opts:    manhattan.FloodOptions{Source: manhattan.SourceCorner, TrackZones: true},
		factory: sim.MRWPFactory(),
	}
}

// pausedRecord is the resting model: MRWP with way-point pauses, slow
// enough that the index takes the delta path, recorded and replayed.
func pausedRecord(tiny bool) floodSpec {
	n := 20000
	if tiny {
		n = 800
	}
	return floodSpec{
		cfg:     manhattan.Config{N: n, L: math.Sqrt(float64(n)), R: 2, V: 0.02, Pause: 50},
		opts:    manhattan.FloodOptions{Source: manhattan.SourceCorner},
		record:  true,
		factory: sim.PausedMRWPFactory(50),
	}
}

// config returns the configuration of flood i with the given seed and
// worker count.
func (fs floodSpec) config(i int, seed uint64, workers int) manhattan.Config {
	c := fs.cfg
	c.Seed = seed
	c.Workers = workers
	if len(fs.radii) > 0 {
		c.R = fs.radii[i%len(fs.radii)]
	}
	return c
}

// floodRun is the outcome of one timed flood.
type floodRun struct {
	time  int     // flooding time T in steps
	wall  float64 // seconds spent in Flood
	setup float64 // seconds spent in manhattan.New
}

func walls(runs []floodRun) []float64 {
	out := make([]float64, len(runs))
	for i, f := range runs {
		out[i] = f.wall
	}
	return out
}

// newSim builds a simulation and returns it with its set-up time. The
// heap is collected first so set-up and the flood that follows do not pay
// for the previous flood's garbage.
func (r *run) newSim(c manhattan.Config) (*manhattan.Simulation, float64, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := manhattan.New(c)
	return s, time.Since(t0).Seconds(), err
}

// flood builds a simulation for c and floods it once, checking that every
// agent was informed. With waits non-nil, an observer that only reads the
// clock appends each step's wall time in milliseconds to *waits.
func (r *run) flood(fs floodSpec, c manhattan.Config, waits *[]float64) (floodRun, bool) {
	s, setup, err := r.newSim(c)
	if !r.rep.check(err == nil, "manhattan.New(seed %#x): %v", c.Seed, err) {
		return floodRun{}, false
	}
	if waits != nil {
		s.Attach(&stepClock{waits: waits})
	}
	t0 := time.Now()
	res, err := s.Flood(fs.opts)
	wall := time.Since(t0).Seconds()
	ok := r.rep.check(err == nil && res.Completed && res.Informed == c.N,
		"flood seed %#x workers %d: completed=%v informed=%d/%d err=%v",
		c.Seed, c.Workers, res.Completed, res.Informed, c.N, err)
	return floodRun{time: res.Time, wall: wall, setup: setup}, ok
}

// stepClock is an Observer that records the time between consecutive
// views: the first view of a Flood is its run-start frame, so each later
// interval is one flood step as the caller waits for it.
type stepClock struct {
	last  time.Time
	waits *[]float64
}

func (c *stepClock) ObserveStep(manhattan.StepView) error {
	now := time.Now()
	if !c.last.IsZero() {
		*c.waits = append(*c.waits, float64(now.Sub(c.last))/1e6)
	}
	c.last = now
	return nil
}

// floodWorkload drives a flood workload: per seed until the time is up,
// one sequential flood and one with Workers = nproc, and on a recording
// workload a recorded flood and its replay; or the traced run.
//
// agent_steps_per_s is the median over seeds of N*T per second of the
// sequential flood. On a recording workload it covers the seed's flood
// run all three ways a user runs it (plain, recorded with the flush, and
// replayed to the end): 3*N*T over the three wall times together, so a
// slower Recorder or Replay moves it, not only a slower world step.
func (r *run) floodWorkload(fs floodSpec) {
	if r.opt.trace {
		r.tracedFloods(fs)
		r.probes(fs)
		r.serviceLayers(0, 4)
		return
	}
	var seq, par, rec []floodRun
	var setups, waits, rates, replayWalls []float64
	frames := 0
	for i := 0; i == 0 || r.elapsed() < r.opt.seconds; i++ {
		seed := derive(r.opt.seed, streamFlood, i)
		a, ok := r.flood(fs, fs.config(i, seed, 0), &waits)
		if !ok {
			continue
		}
		b, ok := r.flood(fs, fs.config(i, seed, r.nproc), nil)
		if !ok {
			continue
		}
		seq, par = append(seq, a), append(par, b)
		setups = append(setups, a.setup, b.setup)
		r.rep.check(a.time == b.time, "seed %#x: T=%d sequential but %d with Workers=%d", seed, a.time, b.time, r.nproc)
		agentSteps := float64(fs.cfg.N) * float64(a.time)
		if !fs.record {
			rates = append(rates, agentSteps/a.wall)
			continue
		}
		c, path, live, ok := r.recordedFlood(fs, fs.config(i, seed, 0), nil)
		if !ok {
			continue
		}
		rec = append(rec, c)
		setups = append(setups, c.setup)
		r.rep.check(c.time == a.time, "seed %#x: T=%d unrecorded but %d recorded", seed, a.time, c.time)
		wall, n, ok := r.replay(path, c.time, live, nil)
		if ok {
			replayWalls = append(replayWalls, wall)
			frames += n
			rates = append(rates, 3*agentSteps/(a.wall+c.wall+wall))
		}
	}
	if len(rates) == 0 {
		return
	}
	n := fs.cfg.N
	seqRates, parRates, scaling := make([]float64, len(seq)), make([]float64, len(seq)), make([]float64, len(seq))
	for i := range seq {
		seqRates[i] = float64(n) * float64(seq[i].time) / seq[i].wall
		parRates[i] = float64(n) * float64(par[i].time) / par[i].wall
		scaling[i] = parRates[i] / (float64(r.nproc) * seqRates[i])
	}
	r.rep.set("setup_s", "s", median(setups), len(setups))
	r.rep.set("wait_ms_p50", "ms", median(waits), len(waits))
	r.rep.set("wait_ms_p90", "ms", quantile(waits, 0.9), len(waits))
	r.rep.set("agent_steps_per_s", "1/s", median(rates), len(rates))
	r.rep.set("scaling_efficiency", "ratio", median(scaling), len(par))
	r.rep.set("flood_s_p50", "s", median(walls(seq)), len(seq))
	r.rep.set("parallel_flood_s_p50", "s", median(walls(par)), len(par))
	r.rep.set("parallel_agent_steps_per_s", "1/s", median(parRates), len(par))
	if fs.record {
		r.rep.set("unrecorded_agent_steps_per_s", "1/s", median(seqRates), len(seq))
		r.rep.set("recorded_flood_s_p50", "s", median(walls(rec)), len(rec))
		r.rep.set("replay_frames_per_s", "1/s", float64(frames)/sum(replayWalls), len(replayWalls))
	}
}

// recordedFlood floods a fresh simulation with a Recorder attached,
// writing through a bufio.Writer to a file in the run's temp directory.
// The wall time covers the flood and the final flush. When encode is
// non-nil the Recorder is wrapped in an observer that records one
// tracev2.encode span per step. It returns the trace path and the final
// positions of the live run.
func (r *run) recordedFlood(fs floodSpec, c manhattan.Config, encode *spanBuffer) (floodRun, string, []manhattan.Point, bool) {
	s, setup, err := r.newSim(c)
	if !r.rep.check(err == nil, "manhattan.New(seed %#x): %v", c.Seed, err) {
		return floodRun{}, "", nil, false
	}
	path := filepath.Join(r.tmp, "flood.trace")
	f, err := os.Create(path)
	if !r.rep.check(err == nil, "creating trace file: %v", err) {
		return floodRun{}, "", nil, false
	}
	defer f.Close() // error-path release; the success path checks Close below
	bw := bufio.NewWriterSize(f, 1<<20)
	rec, err := manhattan.NewRecorder(bw, s, manhattan.RecordOptions{})
	if !r.rep.check(err == nil, "NewRecorder: %v", err) {
		return floodRun{}, "", nil, false
	}
	var obs manhattan.Observer = rec
	if encode != nil {
		obs = &timedObserver{inner: rec, spans: encode, agents: int64(c.N)}
	}
	s.Attach(obs)
	t0 := time.Now()
	res, err := s.Flood(fs.opts)
	s.Detach()
	if err == nil {
		err = bw.Flush()
	}
	wall := time.Since(t0).Seconds()
	if err == nil {
		err = f.Close()
	}
	ok := r.rep.check(err == nil && res.Completed && res.Informed == c.N,
		"recorded flood seed %#x: completed=%v informed=%d/%d err=%v", c.Seed, res.Completed, res.Informed, c.N, err)
	return floodRun{time: res.Time, wall: wall, setup: setup}, path, s.Positions(), ok
}

// timedObserver forwards every step to inner inside a span.
type timedObserver struct {
	inner  manhattan.Observer
	spans  *spanBuffer
	agents int64
}

func (o *timedObserver) ObserveStep(v manhattan.StepView) error {
	t0 := o.spans.now()
	err := o.inner.ObserveStep(v)
	o.spans.add("tracev2.encode", -1, t0, o.spans.now(), o.agents)
	return err
}

// replay reads the trace at path to its end and checks that the last
// frame is the live run's final step: same step, same positions, every
// agent informed. When decode is non-nil each Next is recorded as a
// tracev2.decode span. It returns the wall time of OpenReplay plus the
// Next calls and the number of frames.
func (r *run) replay(path string, lastStep int, live []manhattan.Point, decode *spanBuffer) (float64, int, bool) {
	f, err := os.Open(path)
	if !r.rep.check(err == nil, "opening trace: %v", err) {
		return 0, 0, false
	}
	defer f.Close() // read only
	t0 := time.Now()
	rp, err := manhattan.OpenReplay(f)
	if !r.rep.check(err == nil, "OpenReplay: %v", err) {
		return 0, 0, false
	}
	frames := 0
	for {
		var s0 int64
		if decode != nil {
			s0 = decode.now()
		}
		err = rp.Next()
		if err != nil {
			break
		}
		if decode != nil {
			decode.add("tracev2.decode", -1, s0, decode.now(), int64(len(live)))
		}
		frames++
	}
	wall := time.Since(t0).Seconds()
	if !r.rep.check(errors.Is(err, io.EOF), "replay: %v", err) {
		return 0, 0, false
	}
	err = sameFrame(rp.View(), lastStep, live)
	return wall, frames, r.rep.check(err == nil, "replay of %s: %v", path, err)
}

// sameFrame compares a replayed frame with the live run's final state.
func sameFrame(v manhattan.StepView, step int, live []manhattan.Point) error {
	if v.Step != step {
		return fmt.Errorf("last frame is step %d, live run ended at %d", v.Step, step)
	}
	if len(v.X) != len(live) || len(v.Informed) != len(live) {
		return fmt.Errorf("last frame has %d agents and %d informed flags, want %d", len(v.X), len(v.Informed), len(live))
	}
	for i, p := range live {
		if v.X[i] != p.X || v.Y[i] != p.Y {
			return fmt.Errorf("agent %d at (%v,%v) in the replay, (%v,%v) live", i, v.X[i], v.Y[i], p.X, p.Y)
		}
		if !v.Informed[i] {
			return fmt.Errorf("agent %d uninformed in the replay, informed live", i)
		}
	}
	return nil
}

// tracedFloods is the traced run of a flood workload: per seed, an
// untraced manhattan Flood and a traced flood built from the same calls
// manhattan.New and Flood make (sim.NewWorld, core.NewFlooding), stepped
// by the harness; a recording workload also records and replays with
// spans around every encode and decode.
func (r *run) tracedFloods(fs floodSpec) {
	var untraced []floodRun
	var traced []float64
	for i := 0; i == 0 || r.elapsed() < r.opt.seconds; i++ {
		seed := derive(r.opt.seed, streamFlood, i)
		c := fs.config(i, seed, 0)
		a, ok := r.flood(fs, c, nil)
		if !ok {
			continue
		}
		t, wall, ok := r.tracedFlood(fs, c)
		if !ok {
			continue
		}
		untraced, traced = append(untraced, a), append(traced, wall)
		r.rep.check(t+r.opt.skewTracedT == a.time, "seed %#x: T=%d untraced but %d traced", seed, a.time, t+r.opt.skewTracedT)
		if !fs.record {
			continue
		}
		rec, path, live, ok := r.recordedFlood(fs, c, r.spans)
		if ok {
			r.rep.check(rec.time == a.time, "seed %#x: T=%d unrecorded but %d recorded", seed, a.time, rec.time)
			r.tracev2Size(path, c.N, rec.time+1)
			r.replay(path, rec.time, live, r.spans)
		}
	}
	if len(traced) == 0 {
		return
	}
	r.rep.set("trace_overhead", "ratio", sum(traced)/sum(walls(untraced)), len(traced))
	r.floodLayers()
}

// tracedFlood runs one flood with spans: a root "flood" span, and per
// step a sim.world_step span from Flooding.Step entry to the world's step
// hook and a core.protocol span from the hook to Step's return. It
// returns the flooding time and the flood's wall time in seconds.
func (r *run) tracedFlood(fs floodSpec, c manhattan.Config) (int, float64, bool) {
	b := r.spans
	runtime.GC()
	t0 := b.now()
	w, err := sim.NewWorld(sim.Params{N: c.N, L: c.L, R: c.R, V: c.V, Seed: c.Seed, Workers: c.Workers}, fs.factory)
	b.add("sim.new_world", -1, t0, b.now(), int64(c.N))
	if !r.rep.check(err == nil, "sim.NewWorld(seed %#x): %v", c.Seed, err) {
		return 0, 0, false
	}
	var opts []core.FloodOption
	// Flood attaches the cell partition when zones are tracked or the
	// source is the central cell.
	if fs.opts.TrackZones || fs.opts.Source == manhattan.SourceCenter {
		part, err := cells.NewPartition(c.L, c.R, c.N)
		if !r.rep.check(err == nil, "cells.NewPartition: %v", err) {
			return 0, 0, false
		}
		opts = append(opts, core.WithPartition(part))
	}
	central, corner := core.SourcePair(w)
	source := central
	if fs.opts.Source == manhattan.SourceCorner {
		source = corner
	}
	f, err := core.NewFlooding(w, source, opts...)
	if !r.rep.check(err == nil, "core.NewFlooding: %v", err) {
		return 0, 0, false
	}
	var mid int64
	w.SetStepHook(func() { mid = b.now() })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := b.now()
	root := b.add("flood", -1, start, start, 0)
	for !f.Done() && w.Time() < manhattan.DefaultMaxSteps {
		s := b.now()
		newly := f.Step()
		e := b.now()
		b.add("sim.world_step", root, s, mid, int64(c.N))
		b.add("core.protocol", root, mid, e, int64(newly))
	}
	end := b.now()
	b.close(root, end, int64(w.Time()))
	runtime.ReadMemStats(&m1)
	r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	r.gcCycles += uint64(m1.NumGC - m0.NumGC)
	r.tracedSteps += w.Time()
	r.floodsTraced++
	ok := r.rep.check(f.Done() && f.InformedCount() == c.N,
		"traced flood seed %#x: informed %d/%d after %d steps", c.Seed, f.InformedCount(), c.N, w.Time())
	return w.Time(), float64(end-start) / 1e9, ok
}

// tracev2Size records the trace file's bytes per agent-step.
func (r *run) tracev2Size(path string, n, frames int) {
	st, err := os.Stat(path)
	if r.rep.check(err == nil, "stat trace: %v", err) {
		r.traceBytes += float64(st.Size())
		r.traceAgentFrames += float64(n) * float64(frames)
	}
}

// floodLayers derives the sim, core and runtime metrics from the flood
// spans.
func (r *run) floodLayers() {
	b := r.spans
	world, agents := b.durations("sim.world_step", 1e3)
	proto, newly := b.durations("core.protocol", 1e3)
	floods, steps := b.durations("flood", 1e3)
	newWorld, _ := b.durations("sim.new_world", 1e6)
	total := sum(floods)
	r.rep.set("sim.world_step_us_p50", "us", median(world), len(world))
	r.rep.set("sim.world_step_us_p99", "us", quantile(world, 0.99), len(world))
	r.rep.set("sim.world_step_share", "ratio", sum(world)/total, len(world))
	r.rep.set("sim.new_world_ms", "ms", median(newWorld), len(newWorld))
	r.rep.set("core.protocol_us_p50", "us", median(proto), len(proto))
	r.rep.set("core.protocol_share", "ratio", sum(proto)/total, len(proto))
	r.rep.set("core.steps_per_flood", "count", median(steps), len(steps))
	r.rep.set("core.newly_informed_per_step_p50", "count", median(newly), len(newly))
	r.rep.set("trace_span_coverage", "ratio", (sum(world)+sum(proto))/total, len(floods))
	r.rep.set("runtime.alloc_bytes_per_step", "B", float64(r.allocBytes)/float64(r.tracedSteps), r.tracedSteps)
	r.rep.set("runtime.gc_cycles_per_flood", "count", float64(r.gcCycles)/float64(r.floodsTraced), r.floodsTraced)
	if len(agents) > 0 {
		r.worldStepNsPerAgent = median(world) * 1e3 / agents[0]
	}
}
