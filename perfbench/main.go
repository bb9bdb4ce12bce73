// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each invocation runs one workload:
//
//	bash perfbench/run.sh --workload fig12-warm --seed 1 --seconds 10 --trace 0
//
// It sets the workload up several times from an empty store (reporting the
// median as setup_s), then repeats the workload's operation for the given
// number of seconds and reports per-operation medians. Every operation's
// output is checked; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. With --trace 1 the
// run instead reports per-layer metrics from spans recorded around the
// calls into each layer, its wall coverage and its tracing overhead.
//
//	perfbench aa -a A.jsonl -b B.jsonl   # A/A report over two result logs
//
// See perfbench/NOTES.md for the workloads, metrics and known defects.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many times each invocation sets its workload up.
const setupRuns = 4

// minOps is the fewest measured operations per invocation, however long
// they take.
const minOps = 3

// outDir holds build output, scratch stores, result logs and span dumps,
// relative to the checkout root the benchmark runs from.
const outDir = ".bench_build/perfbench"

//go:embed reference.json
var referenceJSON []byte

// reference is a committed output digest at the default seed.
type reference struct {
	Size   float64 `json:"size"`
	Digest string  `json:"digest"`
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"sampling.simpoint_s", "s"},
	{"sampling.estimators_s", "s"},
	{"core.run_s", "s"},
	{"core.comparisons", "count"},
	{"core.ns_per_comparison", "ns"},
	{"experiments.fig_s.fig10", "s"},
	{"experiments.fig_s.fig11", "s"},
	{"experiments.fig_s.fig12", "s"},
	{"experiments.self_s", "s"},
	{"artifact.load_s", "s"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.publish_s", "s"},
	{"artifact.bytes", "bytes"},
	{"profile.record_s", "s"},
	{"cpu.detailed_mops", "Mops/s"},
	{"checkpoint.record_s", "s"},
	{"cpu.warm_mops", "Mops/s"},
	{"checkpoint.count", "count"},
	{"checkpoint.heap_mb", "MiB"},
	{"parallel.windows_s", "s"},
	{"cpu.ff_mops", "Mops/s"},
	{"parallel.sample_s", "s"},
	{"parallel.samples", "count"},
	{"workload.build_s", "s"},
	{"workload.builds", "count"},
	{"campaign.run_s", "s"},
	{"campaign.idle_s", "s"},
	{"campaign.retries", "count"},
	{"trace.wall_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
	{"sim.ipc_err_pct", "%"},
	{"sim.detailed_ops_m", "Mops"},
	{"sim.live_replay_gap_pct", "%"},
}

// figIDs are the figures with a per-figure span metric.
var figIDs = []string{"fig10", "fig11", "fig12"}

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "aa":
			os.Exit(aaMain(args[1:], os.Stdout, os.Stderr))
		case "child":
			os.Exit(childMain(args[1:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runMain(args, os.Stdout, os.Stderr))
}

// result is one invocation's outcome, as printed and as logged.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds every per-operation value behind each metric; it goes
	// to the result log, not to standard output.
	Samples map[string][]float64 `json:"-"`
	Host    hostFacts            `json:"-"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// logRecord is one line of the result log the A/A report reads.
type logRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   int                    `json:"seconds"`
	Size      float64                `json:"size"`
	Host      hostFacts              `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string][]float64   `json:"samples"`
}

// commonFlags are the flags the parent and its child processes share.
type commonFlags struct {
	workload string
	seed     int64
	size     float64
	trace    int
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "", "workload to run")
	fs.Int64Var(&c.seed, "seed", defaultSeed, "workload seed: sets the BBV hash seed (seed+41) and the campaign seed")
	fs.Float64Var(&c.size, "size", 0, "override the workload's benchmark length factor (0 = the workload's own; smoke tests use tiny sizes)")
	fs.IntVar(&c.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
}

// resolve checks the flags and returns the workload and its size.
func (c *commonFlags) resolve() (workloadDef, float64, error) {
	w, err := lookupWorkload(c.workload)
	if err != nil {
		return w, 0, err
	}
	if c.trace != 0 && c.trace != 1 {
		return w, 0, fmt.Errorf("--trace must be 0 or 1")
	}
	size := w.size
	if c.size > 0 {
		size = c.size
	}
	return w, size, nil
}

// procs is the load's parallelism: GOMAXPROCS of every process, the
// campaign and recording job count, at most the machine's CPUs.
func procs() int { return min(2, runtime.NumCPU()) }

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	c.register(fs)
	seconds := fs.Int("seconds", 10, "how long to measure")
	logPath := fs.String("log", filepath.Join(outDir, "results.jsonl"), "result log to append to ('' = none)")
	update := fs.Bool("update-reference", false, "write the output digest into perfbench/reference.json (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, size, err := c.resolve()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	refs := map[string]reference{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintln(stderr, "perfbench: reference.json:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	r := &runner{ctx: ctx, exe: exe, dir: dir, flags: c, stderr: stderr, bench: w.make()}
	if ref, ok := refs[w.name]; ok && c.seed == defaultSeed && ref.Size == size && !*update {
		r.reference = ref.Digest
	}

	var res *result
	d := time.Duration(*seconds) * time.Second
	if c.trace == 1 {
		res, err = r.measureTraced(d)
	} else {
		res, err = r.measure(d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.Host = readHost(".")
	res.Correct = res.Failed == 0

	if *update {
		if c.seed != defaultSeed || !res.Correct || r.expected == "" {
			fmt.Fprintln(stderr, "perfbench: --update-reference needs a correct run at the default seed")
			return 1
		}
		refs[w.name] = reference{Size: size, Digest: r.expected}
		b, err := json.MarshalIndent(refs, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join("perfbench", "reference.json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if *logPath != "" {
		if err := appendLog(*logPath, logRecord{
			Workload: w.name, Seed: c.seed, Trace: c.trace == 1, Seconds: *seconds, Size: size,
			Host: res.Host, Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
			Metrics: res.Metrics, Samples: res.Samples,
		}); err != nil {
			fmt.Fprintln(stderr, "perfbench: log:", err)
		}
	}
	printResult(stdout, w.name, c.seed, size, res)
	return 0
}

// childMain runs one set-up or one operation in this process and prints
// its opOut as JSON. A set-up saves the bench state into the run
// directory; an operation loads it.
func childMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || (args[0] != "setup" && args[0] != "op") {
		fmt.Fprintln(stderr, "perfbench child: want setup or op")
		return 2
	}
	mode := args[0]
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c commonFlags
	c.register(fs)
	dir := fs.String("dir", "", "run directory")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	w, size, err := c.resolve()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{dir: *dir, seed: c.seed, size: size, procs: procs(), ctx: ctx}
	b := w.make()
	statePath := filepath.Join(*dir, "state.json")

	out, err := func() (opOut, error) {
		if mode == "setup" {
			out, err := b.setup(e)
			if err != nil {
				return out, err
			}
			state, err := json.Marshal(b)
			if err != nil {
				return out, err
			}
			return out, os.WriteFile(statePath, state, 0o644)
		}
		state, err := os.ReadFile(statePath)
		if err != nil {
			return opOut{}, err
		}
		if err := json.Unmarshal(state, b); err != nil {
			return opOut{}, err
		}
		var tr *tracer
		if c.trace == 1 {
			tr = newTracer()
		}
		root := tr.begin("op", -1)
		out, err := b.run(e, tr, root)
		tr.end(root)
		if tr != nil {
			out.Spans, out.Counts = tr.snapshot()
		}
		return out, err
	}()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench child %s: %s: %v\n", mode, w.name, err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runner drives one invocation's child processes.
type runner struct {
	ctx    context.Context
	exe    string
	dir    string
	flags  commonFlags
	stderr io.Writer
	bench  bench
	// reference is the committed digest at the default seed ("" = none);
	// expected is the digest every operation must reproduce, set from the
	// set-up or from the first operation.
	reference string
	expected  string
	tally     tally
}

// sample is one child process: its wall time, CPU time and peak RSS as
// the kernel accounts them, and what it reported.
type sample struct {
	wall, cpu, rss float64
	out            opOut
}

func (r *runner) child(mode string, traced bool) (sample, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(r.ctx, r.exe, "child", mode,
		"--workload", r.flags.workload, "--seed", strconv.FormatInt(r.flags.seed, 10),
		"--size", strconv.FormatFloat(r.flags.size, 'g', -1, 64), "--trace", trace, "--dir", r.dir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, r.stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds()}
	if err != nil {
		return s, fmt.Errorf("%s: %w", mode, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		s.rss = float64(ru.Maxrss) / 1024
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &s.out); err != nil {
		return s, fmt.Errorf("%s: bad child output: %w", mode, err)
	}
	if s.out.Store != "" {
		if err := auditStore(s.out.Store, &s.out); err != nil {
			return s, fmt.Errorf("%s: audit: %w", mode, err)
		}
		if mode == "op" {
			if err := os.RemoveAll(s.out.Store); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// setups runs n set-ups, each into a fresh store, and returns their wall
// times. Every set-up must produce the same digest.
func (r *runner) setups(n int) ([]float64, error) {
	var times []float64
	var first string
	for i := 0; i < n; i++ {
		if err := os.RemoveAll(filepath.Join(r.dir, "stores")); err != nil {
			return nil, err
		}
		s, err := r.child("setup", false)
		if err != nil {
			return nil, err
		}
		times = append(times, s.wall)
		if i == 0 {
			first = s.out.Digest
		} else if s.out.Digest != first {
			s.out.Failed = s.out.Attempted // set-up is not deterministic
		}
		r.tally.merge(s.out.tally())
	}
	state, err := os.ReadFile(filepath.Join(r.dir, "state.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(state, r.bench); err != nil {
		return nil, err
	}
	r.expected = r.bench.expect()
	return times, nil
}

// loop runs operations until d has passed and at least n ran, checking
// each one's digest.
func (r *runner) loop(d time.Duration, n int, traced bool) ([]sample, error) {
	var out []sample
	start := time.Now()
	for len(out) < n || time.Since(start) < d {
		s, err := r.child("op", traced)
		if err != nil {
			return nil, err
		}
		r.checkDigest(&s.out)
		r.tally.merge(s.out.tally())
		out = append(out, s)
	}
	return out, nil
}

// checkDigest fails every operation of o whose output differs from the
// expected digest or, at the default seed, from the committed reference.
// Traced figure operations render no report and carry no digest.
func (r *runner) checkDigest(o *opOut) {
	if o.Digest == "" {
		return
	}
	if r.expected == "" {
		r.expected = o.Digest
	}
	if o.Digest != r.expected || (r.reference != "" && o.Digest != r.reference) {
		o.Failed = o.Attempted
	}
}

// measure is the untraced run: end-to-end metrics.
func (r *runner) measure(d time.Duration) (*result, error) {
	setups, err := r.setups(setupRuns)
	if err != nil {
		return nil, err
	}
	ops, err := r.loop(d, minOps, false)
	if err != nil {
		return nil, err
	}
	samples := map[string][]float64{"setup_s": setups}
	for _, s := range ops {
		samples["wall_s"] = append(samples["wall_s"], s.wall)
		samples["cpu_s"] = append(samples["cpu_s"], s.cpu)
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], s.rss)
	}
	return r.result(endToEnd, samples), nil
}

// measureTraced is the traced run: half the time untraced operations (the
// overhead baseline), half traced ones; per-layer metrics are medians over
// the traced operations. Spans are written out when the run ends.
func (r *runner) measureTraced(d time.Duration) (*result, error) {
	if _, err := r.setups(1); err != nil {
		return nil, err
	}
	plain, err := r.loop(d/2, 2, false)
	if err != nil {
		return nil, err
	}
	traced, err := r.loop(d/2, 2, true)
	if err != nil {
		return nil, err
	}
	var plainWall []float64
	for _, s := range plain {
		plainWall = append(plainWall, s.wall)
	}
	samples := map[string][]float64{}
	var dump [][]span
	for _, s := range traced {
		for k, v := range layerMetrics(s.out, procs(), s.wall) {
			samples[k] = append(samples[k], v)
		}
		dump = append(dump, s.out.Spans)
	}
	samples["trace.overhead_s"] = []float64{median(samples["trace.wall_s"]) - median(plainWall)}
	b, err := json.Marshal(dump)
	if err != nil {
		return nil, err
	}
	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", r.flags.workload, r.flags.seed))
	if err := os.WriteFile(spanPath, b, 0o644); err != nil {
		return nil, err
	}
	return r.result(perLayer, samples), nil
}

func (r *runner) result(defs []metricDef, samples map[string][]float64) *result {
	res := &result{Attempted: r.tally.attempted, Failed: r.tally.failed, Samples: samples, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{median(samples[m.name]), m.unit}
	}
	return res
}

// layerMetrics derives every per-layer value of one traced operation
// whose process took wall seconds; trace.overhead_s is left to the caller.
func layerMetrics(o opOut, procs int, wall float64) map[string]float64 {
	ss := newSpanSet(o.Spans)
	var root span
	for _, sp := range o.Spans {
		if sp.Parent == -1 {
			root = sp
		}
	}
	sec := func(name string) float64 { return ss.busy(name).Seconds() }
	per := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// Every per-layer metric is reported on every workload; a layer the
	// workload never calls reads 0.
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range map[string]float64{
		"sampling.simpoint_s":    sec("sampling.simpoint"),
		"sampling.estimators_s":  sec("sampling.estimators"),
		"core.run_s":             sec("core.run"),
		"core.comparisons":       o.Counts["core.comparisons"],
		"core.ns_per_comparison": per(float64(ss.busy("core.run").Nanoseconds()), o.Counts["core.comparisons"]),
		"artifact.load_s":        sec("artifact.load"),
		"artifact.publish_s":     ss.selfByName("artifact.store").Seconds(),
		"profile.record_s":       sec("profile.record"),
		"cpu.detailed_mops":      per(o.Counts["profile.ops"]/1e6, sec("profile.record")),
		"checkpoint.record_s":    sec("checkpoint.record"),
		"cpu.warm_mops":          per(o.Counts["checkpoint.ops"]/1e6, sec("checkpoint.record")),
		"checkpoint.count":       o.Counts["checkpoint.count"],
		"parallel.windows_s":     sec("parallel.windows"),
		"cpu.ff_mops":            per(o.Counts["parallel.ff_ops"]/1e6, sec("parallel.windows")),
		"parallel.sample_s":      sec("parallel.sample"),
		"parallel.samples":       o.Counts["parallel.samples"],
		"workload.build_s":       sec("workload.build"),
		"workload.builds":        o.Counts["workload.builds"],
		"campaign.run_s":         sec("campaign.run"),
		"campaign.idle_s":        float64(procs)*sec("campaign.grid") - sec("campaign.run"),
		"trace.coverage":         ss.coverage(root),
		"trace.wall_s":           wall,
	} {
		m[k] = v
	}
	var figSelf time.Duration
	for _, id := range figIDs {
		m["experiments.fig_s."+id] = sec("experiments.fig." + id)
		figSelf += ss.selfByName("experiments.fig." + id)
	}
	m["experiments.self_s"] = figSelf.Seconds()
	for k, v := range o.Layer {
		m[k] += v
	}
	return m
}

func appendLog(path string, rec logRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printResult prints the host facts and every metric by name with its
// unit, then the result object as the last line.
func printResult(w io.Writer, name string, seed int64, size float64, res *result) {
	host, _ := json.Marshal(res.Host)
	fmt.Fprintf(w, "host %s\n", host)
	fmt.Fprintf(w, "workload %s seed %d size %g procs %d\n", name, seed, size, procs())
	for _, k := range sortedNames(res.Metrics) {
		m := res.Metrics[k]
		fmt.Fprintf(w, "  %-26s %14.6g %-7s n=%d", k, m.Value, m.Unit, len(res.Samples[k]))
		if p, v, ok := tail(res.Samples[k]); ok {
			fmt.Fprintf(w, "  p%.0f %.6g", p, v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-26s %14.6g %-7s (%d of %d operations failed)\n", "failed_frac",
		tally{res.Attempted, res.Failed}.failedFrac(), "ratio", res.Failed, res.Attempted)
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
}

// sortedNames returns the keys of m in order.
func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
