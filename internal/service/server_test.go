package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// paddedSpec returns a valid spec body padded with trailing whitespace to
// exactly size bytes. The decoder stops after the object, so only the
// body limit can tell two such bodies apart.
func paddedSpec(t *testing.T, size int) []byte {
	t.Helper()
	blob, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > size {
		t.Fatalf("spec is %d bytes, cannot pad to %d", len(blob), size)
	}
	return append(blob, bytes.Repeat([]byte(" "), size-len(blob))...)
}

// A submit body one byte over maxJobSpecBytes is refused with 413 and
// leaves no trace in the job table or the state directory; the same spec
// padded to exactly the limit is accepted.
func TestSubmitBodyLimit(t *testing.T) {
	dir := t.TempDir()
	sched := newScheduler(t, Config{Workers: 1, StateDir: dir})
	ts := httptest.NewServer(NewServer(sched))
	t.Cleanup(ts.Close)
	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := post(paddedSpec(t, maxJobSpecBytes+1)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", got)
	}
	if n := len(sched.List()); n != 0 {
		t.Fatalf("oversize body admitted %d jobs", n)
	}
	specs, _ := os.ReadDir(filepath.Join(dir, "jobs"))
	if len(specs) != 0 {
		t.Fatalf("oversize body journaled %d spec files", len(specs))
	}

	if got := post(paddedSpec(t, maxJobSpecBytes)); got != http.StatusAccepted {
		t.Fatalf("body at the limit: status %d, want 202", got)
	}
}

// TestJobSpecAdmission pins the admission rules: specs whose points
// cannot run, or whose worlds would blow past the agent or bucket caps,
// are refused with a message naming the rule; the service's own
// workloads and test specs are admitted.
func TestJobSpecAdmission(t *testing.T) {
	base := func(edit func(*JobSpec)) JobSpec {
		s := testSpec()
		edit(&s)
		return s
	}
	rejected := []struct {
		name string
		spec JobSpec
		rule string
	}{
		{"bucket-cap", base(func(s *JobSpec) { s.Param, s.Values, s.N = "r", []float64{0.003}, 10000 }), "bucket cap"},
		{"agent-cap", base(func(s *JobSpec) { s.Param, s.Values = "n", []float64{maxPointAgents + 1} }), "agent cap"},
		{"n-fraction", base(func(s *JobSpec) { s.Param, s.Values = "n", []float64{400.5} }), "integer"},
		{"n-zero", base(func(s *JobSpec) { s.Param, s.Values = "n", []float64{0} }), "integer"},
		{"fixed-n-zero", base(func(s *JobSpec) { s.N = 0 }), "integer"},
		{"r-negative", base(func(s *JobSpec) { s.Values = []float64{3, -5} }), "radius"},
		{"n-huge", base(func(s *JobSpec) { s.Param, s.Values = "n", []float64{1e300} }), "agent cap"},
		{"v-zero", base(func(s *JobSpec) { s.Param, s.Values = "v", []float64{0} }), "speed"},
		{"v-inf", base(func(s *JobSpec) { s.V = math.Inf(1) }), "speed"},
		{"fixed-r-zero", base(func(s *JobSpec) { s.Param, s.Values, s.R = "v", []float64{0.3}, 0 }), "radius"},
	}
	for _, tc := range rejected {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: admitted %+v", tc.name, tc.spec)
		} else if !strings.Contains(err.Error(), tc.rule) {
			t.Errorf("%s: error %q does not name the %q rule", tc.name, err, tc.rule)
		}
	}
	admitted := map[string]JobSpec{
		"test":         testSpec(),
		"heavy":        heavySpec(),
		"sweep-r-4000": {Param: "r", Values: []float64{3, 5, 8}, N: 4000, V: 0.3, Trials: 32, Seed: 1},
		"sweep-n":      base(func(s *JobSpec) { s.Param, s.Values, s.N = "n", []float64{1, 800, maxPointAgents}, 0 }),
		"sweep-v":      base(func(s *JobSpec) { s.Param, s.Values = "v", []float64{0.05, 2} }),
	}
	for name, spec := range admitted {
		spec.normalize()
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}

	// Over HTTP the refusal is a 400 whose body carries the rule.
	ts := httptest.NewServer(NewServer(newScheduler(t, Config{Workers: 1})))
	t.Cleanup(ts.Close)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"param":"r","values":[0.003],"n":10000,"v":0.3,"trials":1,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "bucket cap") {
		t.Fatalf("bucket-cap spec over HTTP: status %d body %s", resp.StatusCode, body)
	}
}

// FuzzJobSpec feeds arbitrary bytes through the submit route's decode
// and the scheduler's admission checks (normalize, Validate, ID). None of
// them may panic, and an admissible spec must survive the durable
// round-trip — re-encoded and decoded again, as a restart reloads it —
// with its job ID unchanged.
func FuzzJobSpec(f *testing.F) {
	for _, spec := range []JobSpec{testSpec(), heavySpec()} {
		blob, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"param":"q","values":[3],"n":100,"r":5,"v":0.3,"trials":1,"seed":1}`))
	f.Add([]byte(`{"param":"r","bogus_field":1}`))
	f.Add([]byte(`{"param":"n","values":[1e308,-1],"trials":1,"timeout_seconds":-1}`))
	f.Add([]byte(`{"param":"r","values":[0.003],"n":10000,"v":0.3,"trials":1,"seed":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(body)
		if err != nil {
			return
		}
		spec.normalize()
		if spec.Validate() != nil {
			return
		}
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("admissible spec does not encode: %v", err)
		}
		again, err := decodeJobSpec(blob)
		if err != nil {
			t.Fatalf("re-encoded spec does not decode: %v\n%s", err, blob)
		}
		if again.ID() != spec.ID() {
			t.Fatalf("job ID changed across the round-trip: %s -> %s\n%s", spec.ID(), again.ID(), blob)
		}
	})
}
