package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var errHostMismatch = errors.New("results come from different hosts; refusing to compare")

// aaMain compares two sets of untraced runs of the same code (an A/A
// test): for every workload and end-to-end metric it prints each set's
// median and interquartile spread, whether the no-regression rule fires
// between the two sets, and how often it fires over random re-splits of
// the pooled runs. It refuses logs measured on different hosts.
func aaMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench aa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "result log of the first set")
	b := fs.String("b", "", "result log of the second set")
	manifestPath := fs.String("manifest", "BENCHMARK.json", "benchmark manifest")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var man manifest
	raw, err := os.ReadFile(*manifestPath)
	if err == nil {
		err = json.Unmarshal(raw, &man)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench aa: manifest:", err)
		return 2
	}
	setA, errA := readLog(*a)
	setB, errB := readLog(*b)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "perfbench aa:", err)
		return 2
	}
	if err := checkHosts(append(append([]logRecord(nil), setA...), setB...)); err != nil {
		fmt.Fprintln(stderr, "perfbench aa:", err)
		return 1
	}
	fmt.Fprintf(stdout, "| workload | metric | median A | spread A | median B | spread B | B vs A | bound | fires | re-split fire rate |\n")
	fmt.Fprintf(stdout, "|---|---|---|---|---|---|---|---|---|---|\n")
	fired := 0
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			va, vb := values(setA, w.Name, m.Name), values(setB, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fires := worse(ma, mb, m.Bound, m.Better)
			if fires {
				fired++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4g %s | %.1f%% | %.4g %s | %.1f%% | %+.1f%% | %.0f%% | %v | %.1f%% |\n",
				w.Name, m.Name, ma, m.Unit, 100*spread(va), mb, m.Unit, 100*spread(vb),
				100*(mb-ma)/ma, 100*m.Bound, fires, 100*resplitFireRate(va, vb, m.Bound, m.Better))
		}
	}
	fmt.Fprintf(stdout, "\nno-regression rule fired on %d workload×metric pairs of the A/A comparison\n", fired)
	return 0
}

func readLog(path string) ([]logRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []logRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		var r logRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

// checkHosts refuses a comparison across hosts.
func checkHosts(recs []logRecord) error {
	for _, r := range recs[min(1, len(recs)):] {
		if !sameHost(recs[0].Host, r.Host) {
			return fmt.Errorf("%w: %+v vs %+v", errHostMismatch, recs[0].Host, r.Host)
		}
	}
	return nil
}

// values collects one metric of one workload, one value per run.
func values(recs []logRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// resplitFireRate pools both sets and, over a fixed number of seeded
// random splits into two sets of the original sizes, returns how often the
// no-regression rule fires between them: the gate's false-alarm rate on
// noise alone.
func resplitFireRate(a, b []float64, bound float64, better string) float64 {
	pool := append(append([]float64(nil), a...), b...)
	rng := rand.New(rand.NewSource(1))
	const trials = 2000
	fires := 0
	for i := 0; i < trials; i++ {
		rng.Shuffle(len(pool), func(x, y int) { pool[x], pool[y] = pool[y], pool[x] })
		if worse(median(pool[:len(a)]), median(pool[len(a):]), bound, better) {
			fires++
		}
	}
	return float64(fires) / trials
}
