package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// metric is one measured quantity with its unit and sample count.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// report collects a run's metrics and the outcome of every check.
type report struct {
	metrics   []metric
	attempted int
	failures  []string
}

// set records (or replaces) a metric.
func (p *report) set(name, unit string, v float64, samples int) {
	for i := range p.metrics {
		if p.metrics[i].Name == name {
			p.metrics[i] = metric{name, unit, v, samples}
			return
		}
	}
	p.metrics = append(p.metrics, metric{name, unit, v, samples})
}

func (p *report) has(name string) bool {
	for _, m := range p.metrics {
		if m.Name == name {
			return true
		}
	}
	return false
}

// check counts one attempted operation or correctness check and records
// a failure when ok is false. It returns ok.
func (p *report) check(ok bool, format string, args ...any) bool {
	p.attempted++
	if !ok {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

func (p *report) failed() int { return len(p.failures) }

// print writes the human-readable table: the listed metrics first, then
// every other metric the workload measured, then the failures.
func (p *report) print(w io.Writer, listed []string) {
	inList := make(map[string]bool, len(listed))
	for _, name := range listed {
		inList[name] = true
	}
	row := func(m metric, tag string) {
		fmt.Fprintf(w, "# %-36s %16.6g %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, tag)
	}
	for _, name := range listed {
		for _, m := range p.metrics {
			if m.Name == name {
				row(m, "")
			}
		}
	}
	for _, m := range p.metrics {
		if !inList[m.Name] {
			row(m, "(workload detail)")
		}
	}
	for _, f := range p.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
}

// resultLine renders the final JSON line with exactly the listed metrics.
func (p *report) resultLine(listed []string) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{p.failed() == 0, p.attempted, p.failed(), map[string]value{}}
	for _, name := range listed {
		for _, m := range p.metrics {
			if m.Name == name {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return nil, fmt.Errorf("metric %s is %v", name, m.Value)
				}
				out.Metrics[name] = value{m.Value, m.Unit}
			}
		}
	}
	return json.Marshal(out)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// derive returns the i-th seed of the stream named by salt, derived from
// the workload seed with the splitmix64 finalizer.
func derive(seed uint64, salt uint64, i int) uint64 {
	z := seed ^ salt*0xd1b54a32d192ed03
	z += uint64(i+1) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Seed streams: each kind of input draws from its own stream.
const (
	streamFlood uint64 = iota + 1
	streamProbe
	streamJob
)

// span is one timed interval of a traced run. Parent indexes the
// enclosing span (-1 for a root); count carries the interval's work
// count where one exists (agents informed by a protocol step, steps of a
// flood, cells of a job).
type span struct {
	name       string
	parent     int32
	start, end int64 // nanoseconds since the buffer was made
	count      int64
}

// spanBuffer is a preallocated in-memory span store: recording never
// allocates, and spans past the capacity are counted as dropped.
type spanBuffer struct {
	base    time.Time
	spans   []span
	dropped int
}

func newSpanBuffer(capacity int) *spanBuffer {
	return &spanBuffer{base: time.Now(), spans: make([]span, 0, capacity)}
}

// now returns the monotonic time since the buffer was made.
func (b *spanBuffer) now() int64 { return int64(time.Since(b.base)) }

// add records a span and returns its index (-1 when dropped).
func (b *spanBuffer) add(name string, parent int32, start, end, count int64) int32 {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{name, parent, start, end, count})
	return int32(len(b.spans) - 1)
}

// close sets the end and count of an open span.
func (b *spanBuffer) close(id int32, end, count int64) {
	if id >= 0 {
		b.spans[id].end = end
		b.spans[id].count = count
	}
}

// durations returns the durations of the named spans in the given unit
// (nanoseconds per unit), and their counts.
func (b *spanBuffer) durations(name string, unit float64) (d, counts []float64) {
	for _, s := range b.spans {
		if s.name == name {
			d = append(d, float64(s.end-s.start)/unit)
			counts = append(counts, float64(s.count))
		}
	}
	return d, counts
}

// writeTSV writes every span as id, parent, name, start_ns, end_ns, count.
func (b *spanBuffer) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tcount")
	for i, s := range b.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.name, s.start, s.end, s.count)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
