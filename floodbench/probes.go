package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	manhattan "manhattanflood"
	"manhattanflood/internal/sim"
)

// probes times the world's layers one public call at a time on a
// disposable world with the workload's configuration: the mobility
// advance (Population().StepRange over every agent), the index classify
// (Index().ClassifyInto) and rebuild (Index().RebuildXY), and World.Reset.
// A workload that does not record gets its tracev2 metrics from a short
// recording of the same configuration.
func (r *run) probes(fs floodSpec) {
	c := fs.config(0, derive(r.opt.seed, streamProbe, 0), 0)
	n := c.N
	w, err := sim.NewWorld(sim.Params{N: n, L: c.L, R: c.R, V: c.V, Seed: c.Seed}, fs.factory)
	if !r.rep.check(err == nil, "probe world: %v", err) {
		return
	}
	pop, ix := w.Population(), w.Index()
	if !r.rep.check(pop != nil, "probe world has no population") {
		return
	}
	cells := make([]int32, n)
	reps := clamp(5_000_000/n, 20, 500)
	var advance, classify, rebuild []float64
	for k := 0; k < reps; k++ {
		t0 := time.Now()
		pop.StepRange(0, n)
		t1 := time.Now()
		ix.ClassifyInto(cells, w.X(), w.Y())
		t2 := time.Now()
		ix.RebuildXY(w.X(), w.Y())
		t3 := time.Now()
		advance = append(advance, float64(t1.Sub(t0))/float64(n))
		classify = append(classify, float64(t2.Sub(t1))/float64(n))
		rebuild = append(rebuild, float64(t3.Sub(t2))/float64(n))
	}
	var resets []float64
	for k := 0; k < clamp(reps/10, 3, 20); k++ {
		t0 := time.Now()
		w.Reset(derive(r.opt.seed, streamProbe, k+1))
		resets = append(resets, float64(time.Since(t0))/1e6)
	}
	adv, cls := median(advance), median(classify)
	r.rep.set("mobility.advance_ns_per_agent", "ns", adv, len(advance))
	r.rep.set("spatialindex.classify_ns_per_agent", "ns", cls, len(classify))
	r.rep.set("spatialindex.rebuild_ns_per_agent", "ns", median(rebuild), len(rebuild))
	r.rep.set("sim.reset_ms_p50", "ms", median(resets), len(resets))
	if r.worldStepNsPerAgent > 0 {
		r.rep.set("sim.index_sync_ns_per_agent", "ns", r.worldStepNsPerAgent-adv-cls, len(advance))
	}
	if !fs.record {
		r.recordProbe(c, clamp(2_000_000/n, 8, 128))
	}
	r.tracev2Layers()
}

// recordProbe records steps plain world steps of a disposable simulation
// into memory with encode spans, then replays them with decode spans.
func (r *run) recordProbe(c manhattan.Config, steps int) {
	s, err := manhattan.New(c)
	if !r.rep.check(err == nil, "probe simulation: %v", err) {
		return
	}
	var buf bytes.Buffer
	rec, err := manhattan.NewRecorder(&buf, s, manhattan.RecordOptions{})
	if !r.rep.check(err == nil, "probe recorder: %v", err) {
		return
	}
	s.Attach(&timedObserver{inner: rec, spans: r.spans, agents: int64(c.N)})
	for k := 0; k < steps; k++ {
		s.Step()
	}
	s.Detach()
	if !r.rep.check(s.ObserverErr() == nil, "probe recording: %v", s.ObserverErr()) {
		return
	}
	r.traceBytes += float64(buf.Len())
	r.traceAgentFrames += float64(c.N) * float64(rec.Frames())
	rp, err := manhattan.OpenReplay(bytes.NewReader(buf.Bytes()))
	if !r.rep.check(err == nil, "probe OpenReplay: %v", err) {
		return
	}
	frames := 0
	for {
		t0 := r.spans.now()
		if err = rp.Next(); err != nil {
			break
		}
		r.spans.add("tracev2.decode", -1, t0, r.spans.now(), int64(c.N))
		frames++
	}
	r.rep.check(errors.Is(err, io.EOF) && frames == rec.Frames(), "probe replay: %d of %d frames: %v", frames, rec.Frames(), err)
}

// tracev2Layers derives the trace codec metrics from the encode and
// decode spans.
func (r *run) tracev2Layers() {
	enc, encN := r.spans.durations("tracev2.encode", 1)
	dec, decN := r.spans.durations("tracev2.decode", 1)
	if len(enc) > 0 {
		r.rep.set("tracev2.encode_ns_per_agent", "ns", median(enc)/encN[0], len(enc))
	}
	if len(dec) > 0 {
		r.rep.set("tracev2.decode_ns_per_agent", "ns", median(dec)/decN[0], len(dec))
	}
	if r.traceAgentFrames > 0 {
		r.rep.set("tracev2.bytes_per_agent_step", "B", r.traceBytes/r.traceAgentFrames, len(enc))
	}
}

func clamp(v, lo, hi int) int {
	return max(lo, min(v, hi))
}
