package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// smoke test's runner re-executes it as "child setup|op ...".
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeSize is a benchmark length factor small enough that every workload
// sets up and runs in about a second.
const smokeSize = "0.002"

// TestSmoke drives every workload end to end at a tiny size, untraced and
// traced, and checks the result line's shape and values.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := runMain([]string{"--workload", w.name, "--seed", "3", "--seconds", "0",
					"--size", smokeSize, "--trace", trace, "--log", ""}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: %+v (present %v), want unit %s", d.name, m, ok, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("%s = %v, want > 0", d.name, m.Value)
					}
				}
				if trace == "1" {
					if c := res.Metrics["trace.coverage"].Value; c < 0.5 || c > 1 {
						t.Errorf("trace.coverage = %v", c)
					}
				}
			})
		}
	}
}

// lastLine parses the result object, which must be the last line and
// carry exactly the four contract keys.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not JSON: %q", last)
	}
	if len(keys) != 4 {
		t.Fatalf("result keys = %v, want correct, attempted, failed, metrics", keys)
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	return res
}

// TestUnknownWorkloadFails checks the exit code of a bad invocation.
func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := runMain([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Fatalf("printed a result: %q", stdout.String())
	}
}

// TestManifestMatchesBenchmark checks BENCHMARK.json against the metrics
// and workloads this program reports, and against the manifest's limits.
func TestManifestMatchesBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: manifest %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, program %d", len(m.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, e := range m.EndToEnd {
		maxBound = math.Max(maxBound, e.Bound)
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit || e.Better != "lower" ||
			e.Bound <= 0 || e.Bound > 0.25 || !unitRE.MatchString(e.Unit) {
			t.Errorf("end-to-end %d: %+v, program %+v", i, e, endToEnd[i])
		}
	}
	for _, e := range m.EndToEnd {
		if e.Name == "setup_s" && e.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", e.Bound, maxBound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, program %d", len(m.PerLayer), len(perLayer))
	}
	for i, p := range m.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit || !nameRE.MatchString(p.Name) ||
			!unitRE.MatchString(p.Unit) || (p.Better != "lower" && p.Better != "higher") {
			t.Errorf("per-layer %d: %+v, program %+v", i, p, perLayer[i])
		}
	}
}
