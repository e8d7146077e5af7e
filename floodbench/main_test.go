package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke tests read.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs one workload at smoke-test sizes and returns its standard
// output and exit code.
func runTiny(t *testing.T, workload string, trace bool, skew int) (string, int) {
	t.Helper()
	drive, ok := workloads[workload]
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %q, which the harness does not have", workload)
	}
	opt := options{workload: workload, seed: 7, seconds: 0.2, trace: trace, tiny: true, skewTracedT: skew}
	var stdout, stderr bytes.Buffer
	code := execute(opt, drive, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("%s stderr:\n%s", workload, stderr.String())
	}
	return stdout.String(), code
}

// result is the last line of a run's output.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return r
}

func TestEveryBenchmarkMetricIsPrintedWithItsUnit(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			out, code := runTiny(t, w.Name, trace, 0)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit code %d\n%s", w.Name, trace, code, out)
			}
			r := lastLine(t, out)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: result has %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: result metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				row := regexp.MustCompile(`(?m)^# ` + regexp.QuoteMeta(m.Name) + `\s+\S+\s+` + regexp.QuoteMeta(m.Unit) + `\s`)
				if !row.MatchString(out) {
					t.Errorf("%s trace=%v: no table row for %s in %s", w.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

func TestPlantedTracedMismatchFailsTheRun(t *testing.T) {
	out, code := runTiny(t, "sparse_flood_100k", true, 1)
	if code == 0 {
		t.Fatalf("a traced T one step off the untraced T exited 0\n%s", out)
	}
	r := lastLine(t, out)
	if r.Correct || r.Failed == 0 {
		t.Fatalf("planted mismatch reported correct=%v failed=%d", r.Correct, r.Failed)
	}
	if !strings.Contains(out, "untraced but") {
		t.Errorf("failure does not name the traced/untraced mismatch:\n%s", out)
	}
}

func TestSeedChangesInputsNotWorkloads(t *testing.T) {
	if derive(1, streamFlood, 0) == derive(2, streamFlood, 0) {
		t.Fatal("different workload seeds derive the same flood seed")
	}
	if derive(1, streamFlood, 0) == derive(1, streamJob, 0) {
		t.Fatal("flood and job streams coincide")
	}
	if derive(5, streamJob, 3) != derive(5, streamJob, 3) {
		t.Fatal("derivation is not deterministic")
	}
}
