package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	manhattan "manhattanflood"
	"manhattanflood/internal/checkpoint"
	"manhattanflood/internal/experiments"
	"manhattanflood/internal/service"
	"manhattanflood/internal/sim"
)

// The sweep every job of the service workload asks for: flooding time
// against radius at three points, on the paper's standard square.
var serviceRadii = []float64{3, 5, 8}

const serviceV = 0.3

// serviceSize gives the agents and trials per cell. With 32 trials a job
// is 96 cells, about 0.19 s on two workers: long enough that a burst of
// stolen CPU time on a shared host slows many jobs a little rather than
// a few jobs a lot, which would swing the latency tail between runs.
func serviceSize(tiny bool) (n, trials int) {
	if tiny {
		return 300, 2
	}
	return 4000, 32
}

// jobSpec is job i of the run; its seed is fresh for every job, so no two
// jobs share a content address.
func (r *run) jobSpec(i int) service.JobSpec {
	n, trials := serviceSize(r.opt.tiny)
	return service.JobSpec{
		Param: "r", Values: serviceRadii, N: n, V: serviceV, Trials: trials,
		Seed: derive(r.opt.seed, streamJob, i),
	}
}

// sweepOf is the sweep the service runs for spec: the defaults the
// service fills in (step budget, central source) made explicit.
func sweepOf(spec service.JobSpec) experiments.SweepSpec {
	return experiments.SweepSpec{
		Param: spec.Param, Values: spec.Values, N: spec.N, R: spec.R, V: spec.V,
		Trials: spec.Trials, MaxSteps: manhattan.DefaultMaxSteps, Seed: spec.Seed,
		Source: "center",
	}
}

// serviceCells is the flood of one service cell, for the traced floods
// and probes of the service workload.
func serviceCells(tiny bool) floodSpec {
	n, _ := serviceSize(tiny)
	return floodSpec{
		cfg:     manhattan.Config{N: n, L: math.Sqrt(float64(n)), V: serviceV},
		opts:    manhattan.FloodOptions{Source: manhattan.SourceCenter, TrackZones: true},
		radii:   serviceRadii,
		factory: sim.MRWPFactory(),
	}
}

// floodd is an in-process sweep service listening on 127.0.0.1, with the
// one HTTP client connection the benchmark talks to it through.
type floodd struct {
	sched  *service.Scheduler
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// serviceRetain is how long the service keeps a finished job. A resident
// floodd runs with retention; without it the job table, and with it the
// heap and the scheduler's per-tick scan, would grow with every job the
// run completes, so a faster service would measure a bigger one.
const serviceRetain = 2 * time.Second

// startFloodd starts the service on stateDir and returns it once /healthz
// answers 200, with the seconds that took.
func startFloodd(stateDir string, workers int) (*floodd, float64, error) {
	t0 := time.Now()
	sched, err := service.New(service.Config{StateDir: stateDir, Workers: workers, Retain: serviceRetain})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sched.Close()
		return nil, 0, err
	}
	d := &floodd{
		sched:  sched,
		srv:    &http.Server{Handler: service.NewServer(sched)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	var health struct{ Status string }
	if err := d.call(http.MethodGet, "/healthz", nil, http.StatusOK, &health); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0).Seconds(), nil
}

// stop shuts the listener and the scheduler down and waits for Serve to
// return.
func (d *floodd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // a timeout here still closes the listener; Serve returns below
	<-d.served
	d.client.CloseIdleConnections()
	d.sched.Close()
}

// call makes one request and decodes the JSON answer into out. Any status
// but want is an error.
func (d *floodd) call(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if err := json.Unmarshal(blob, out); err != nil {
		return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
	}
	return nil
}

// jobRun is one job as the client saw it.
type jobRun struct {
	spec    service.JobSpec
	posted  time.Time
	submit  float64 // seconds for the POST round trip
	latency float64 // seconds from the POST to the fetched result
	points  []service.ResultPoint
}

// job submits spec, polls until the job is terminal and fetches its
// result.
func (d *floodd) job(spec service.JobSpec) (jobRun, error) {
	out := jobRun{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	t0 := time.Now()
	out.posted = t0
	var view service.JobView
	if err := d.call(http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &view); err != nil {
		return out, err
	}
	out.submit = time.Since(t0).Seconds()
	for view.State != service.StateCompleted {
		if view.State == service.StateFailed || view.State == service.StateCanceled {
			return out, fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
		if err := d.call(http.MethodGet, "/v1/jobs/"+view.ID, nil, http.StatusOK, &view); err != nil {
			return out, err
		}
	}
	var res struct{ Points []service.ResultPoint }
	if err := d.call(http.MethodGet, "/v1/jobs/"+view.ID+"/result", nil, http.StatusOK, &res); err != nil {
		return out, err
	}
	out.latency = time.Since(t0).Seconds()
	out.points = res.Points
	return out, nil
}

// jobAgentSteps is N*T summed over a completed job's cells.
func jobAgentSteps(j jobRun) float64 {
	t := 0.0
	for _, p := range j.points {
		t += math.Round(p.MeanT*float64(p.Trials)) * float64(j.spec.N)
	}
	return t
}

// serviceWorkload drives the sweep service, or its traced run.
func (r *run) serviceWorkload() {
	cellSpec := serviceCells(r.opt.tiny)
	if r.opt.trace {
		// The direct rerun of the jobs' cells takes about as long as the
		// closed loop, so a third of the run each leaves the last third
		// for the traced floods.
		r.serviceLayers(r.opt.seconds/3, 1)
		r.tracedFloods(cellSpec)
		r.probes(cellSpec)
		return
	}
	d, _, err := startFloodd(filepath.Join(r.tmp, "state"), r.nproc)
	if !r.rep.check(err == nil, "starting floodd: %v", err) {
		return
	}
	// setup_s is the start-up of a floodd restarted on an existing state
	// directory, as a crash-only service is. A start-up takes well under a
	// millisecond, and the host's speed at that scale drifts by up to 2x
	// over seconds, so one burst of start-ups measures the moment rather
	// than the service: after every job a second, disposable floodd is
	// restarted and stopped again, and the median covers them all. The
	// first start, which makes the directory, is not counted.
	restartDir := filepath.Join(r.tmp, "restart")
	var setups []float64
	startup := func() {
		probe, setup, err := startFloodd(restartDir, r.nproc)
		if r.rep.check(err == nil, "starting floodd: %v", err) {
			probe.stop()
			setups = append(setups, setup)
		}
	}
	startup()
	setups = setups[:0]
	// Every verifyEvery-th job is checked right after it completes against
	// its cells run directly on one goroutine while the service idles. The
	// pairs, taken back to back, give the single-thread time of the same
	// work for scaling_efficiency.
	const verifyEvery = 8
	runner := experiments.NewCellRunner(0)
	var done []jobRun
	var latency []float64
	steps, busy, cellCount := 0.0, 0.0, 0
	direct, verifiedBusy := 0.0, 0.0
	for i := 0; i == 0 || r.elapsed() < r.opt.seconds; i++ {
		j, err := d.job(r.jobSpec(i))
		startup()
		if !r.rep.check(err == nil, "job %d: %v", i, err) {
			continue
		}
		done = append(done, j)
		latency = append(latency, j.latency*1e3)
		steps += jobAgentSteps(j)
		busy += j.latency
		cellCount += sweepOf(j.spec).Cells()
		if (len(done)-1)%verifyEvery != 0 {
			continue
		}
		t0 := time.Now()
		outs, err := runCells(runner, sweepOf(j.spec))
		if r.rep.check(err == nil, "direct cells of job %d: %v", i, err) {
			direct += time.Since(t0).Seconds()
			verifiedBusy += j.latency
			r.compareJob(j, outs)
		}
	}
	d.stop()
	if len(done) == 0 || verifiedBusy == 0 {
		return
	}
	verified := (len(done) + verifyEvery - 1) / verifyEvery
	r.rep.set("setup_s", "s", median(setups), len(setups))
	r.rep.set("wait_ms_p50", "ms", median(latency), len(latency))
	r.rep.set("wait_ms_p90", "ms", quantile(latency, 0.9), len(latency))
	r.rep.set("agent_steps_per_s", "1/s", steps/busy, len(done))
	r.rep.set("scaling_efficiency", "ratio", direct/(float64(r.nproc)*verifiedBusy), verified)
	r.rep.set("cells_per_s", "1/s", float64(cellCount)/busy, cellCount)
}

// cellKey addresses one cell's outcome within a sweep.
func cellKey(spec experiments.SweepSpec, point, trial int) int { return point*spec.Trials + trial }

// cellSpans collects one goroutine's cell and record spans, timed from
// base, for merging into the run's span buffer once the goroutine ends.
type cellSpans struct {
	base  time.Time
	spans []span
}

// runCells runs every cell of spec on runner in order.
func runCells(runner *experiments.CellRunner, spec experiments.SweepSpec) ([]checkpoint.Result, error) {
	outs := make([]checkpoint.Result, spec.Cells())
	for p := 0; p < spec.Points(); p++ {
		for t := 0; t < spec.Trials; t++ {
			if err := runCell(runner, spec, p, t, outs, nil, nil); err != nil {
				return nil, err
			}
		}
	}
	return outs, nil
}

// runCell runs one cell into outs (and the journal), timing it into
// spans when given.
func runCell(runner *experiments.CellRunner, spec experiments.SweepSpec, p, t int, outs []checkpoint.Result, journal *checkpoint.Journal, spans *cellSpans) error {
	t0 := time.Now()
	res, err := runner.Run(spec, p, t)
	if err != nil {
		return err
	}
	t1 := time.Now()
	outs[cellKey(spec, p, t)] = res
	if journal != nil {
		if err := journal.RecordDurable(spec.Unit(p, t), res); err != nil {
			return err
		}
	}
	if spans != nil {
		t2 := time.Now()
		at := func(t time.Time) int64 { return int64(t.Sub(spans.base)) }
		spans.spans = append(spans.spans,
			span{name: "experiments.cell", parent: -1, start: at(t0), end: at(t1), count: int64(res.Time)},
			span{name: "checkpoint.record", parent: -1, start: at(t1), end: at(t2), count: 1})
	}
	return nil
}

// compareJob checks that the service's result points equal the
// aggregation of the directly run cells.
func (r *run) compareJob(j jobRun, outs []checkpoint.Result) {
	spec := sweepOf(j.spec)
	want, err := experiments.AggregateSweep(spec, func(p, t int) (checkpoint.Result, bool) {
		return outs[cellKey(spec, p, t)], true
	})
	if !r.rep.check(err == nil, "aggregating job seed %#x: %v", spec.Seed, err) {
		return
	}
	ok := len(want.Points) == len(j.points)
	for i := 0; ok && i < len(want.Points); i++ {
		w, g := want.Points[i], j.points[i]
		ok = w.Err == nil && w.Value == g.Value && w.MeanT == g.MeanT && w.CI95 == g.CI95 &&
			w.CZTime == g.CZTime && w.SuburbLag == g.SuburbLag && w.LOverR == g.LOverR &&
			w.SecondTerm == g.SecondTerm && w.Completed == g.Completed && w.Trials == g.Trials &&
			w.Completed == w.Trials
	}
	r.rep.check(ok, "job seed %#x: service result %+v, direct cells give %+v", spec.Seed, j.points, want.Points)
}

// serviceLayers is the traced service leg: a floodd closed loop until the
// run has used until seconds (and at least minJobs jobs), then every
// job's cells again through CellRunner.Run and Journal.RecordDurable on
// nproc goroutines, with spans, compared against the service's results.
func (r *run) serviceLayers(until float64, minJobs int) {
	d, _, err := startFloodd(filepath.Join(r.tmp, "state-traced"), r.nproc)
	if !r.rep.check(err == nil, "starting floodd: %v", err) {
		return
	}
	var done []jobRun
	t0 := time.Now()
	for i := 0; i < minJobs || r.elapsed() < until; i++ {
		j, err := d.job(r.jobSpec(i))
		if r.rep.check(err == nil, "job %d: %v", i, err) {
			done = append(done, j)
		}
	}
	wall := time.Since(t0).Seconds()
	d.stop()
	if len(done) == 0 {
		return
	}
	for _, j := range done {
		at := int64(j.posted.Sub(r.spans.base))
		id := r.spans.add("service.job", -1, at, at+int64(j.latency*1e9), int64(sweepOf(j.spec).Cells()))
		r.spans.add("service.submit", id, at, at+int64(j.submit*1e9), 1)
	}

	type cell struct{ job, point, trial int }
	total := 0
	specs := make([]experiments.SweepSpec, len(done))
	outs := make([][]checkpoint.Result, len(done))
	journals := make([]*checkpoint.Journal, len(done))
	dir := filepath.Join(r.tmp, "journals")
	if !r.rep.check(os.MkdirAll(dir, 0o755) == nil, "creating journal dir") {
		return
	}
	for i, j := range done {
		specs[i] = sweepOf(j.spec)
		outs[i] = make([]checkpoint.Result, specs[i].Cells())
		total += specs[i].Cells()
		journals[i], err = checkpoint.OpenAppend(filepath.Join(dir, fmt.Sprintf("job-%d.ckpt", i)))
		if !r.rep.check(err == nil, "opening journal: %v", err) {
			for _, jn := range journals[:i] {
				_ = jn.Close() // already failing; the open error is the one reported
			}
			return
		}
	}
	// The queue holds every cell up front, so sends never block.
	work := make(chan cell, total)
	for i, s := range specs {
		for p := 0; p < s.Points(); p++ {
			for t := 0; t < s.Trials; t++ {
				work <- cell{i, p, t}
			}
		}
	}
	close(work)
	spans := make([]cellSpans, r.nproc)
	errs := make([]error, r.nproc)
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			runner := experiments.NewCellRunner(g)
			spans[g].base = r.spans.base
			for c := range work {
				if err := runCell(runner, specs[c.job], c.point, c.trial, outs[c.job], journals[c.job], &spans[g]); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}(g)
	}
	wg.Wait()
	for _, jn := range journals {
		r.rep.check(jn.Close() == nil, "closing journal")
	}
	r.rep.check(errors.Join(errs...) == nil, "direct cells: %v", errors.Join(errs...))
	for i, j := range done {
		r.compareJob(j, outs[i])
	}
	for _, local := range spans {
		for _, s := range local.spans {
			r.spans.add(s.name, s.parent, s.start, s.end, s.count)
		}
	}

	cellMs, _ := r.spans.durations("experiments.cell", 1e6)
	recordMs, _ := r.spans.durations("checkpoint.record", 1e6)
	submitMs, _ := r.spans.durations("service.submit", 1e6)
	r.rep.set("experiments.cell_ms_p50", "ms", median(cellMs), len(cellMs))
	r.rep.set("experiments.cell_ms_p99", "ms", quantile(cellMs, 0.99), len(cellMs))
	r.rep.set("checkpoint.record_ms_p50", "ms", median(recordMs), len(recordMs))
	r.rep.set("checkpoint.record_ms_p99", "ms", quantile(recordMs, 0.99), len(recordMs))
	r.rep.set("service.submit_ms_p50", "ms", median(submitMs), len(submitMs))
	busy := (sum(cellMs) + sum(recordMs)) / 1e3
	r.rep.set("service.overhead_share", "ratio", 1-busy/(float64(r.nproc)*wall), len(done))
}
