package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pgss/internal/artifact"
	"pgss/internal/campaign"
	"pgss/internal/experiments"
	"pgss/internal/sampling"
	"pgss/internal/stats"
	"pgss/internal/workload"
)

// A bench is one workload. setup prepares what the measured operation
// needs, into a fresh store; run performs one measured operation —
// untraced through the program's own entry points when tr is nil, or
// through the benchmark's instrumented copy of the same exported calls
// when tr is set. Each call runs in its own process: a bench's exported
// fields are the state setup hands to run, saved as JSON between them.
type bench interface {
	setup(e *env) (opOut, error)
	run(e *env, tr *tracer, root int) (opOut, error)
	// expect returns the digest every operation must reproduce, or "" when
	// the first operation's digest is the reference.
	expect() string
}

// opOut is what one set-up or operation did, as a child process reports
// it to the parent.
type opOut struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Digest fingerprints the output. Every operation must reproduce the
	// same digest, and at the default seed the committed reference.
	// Traced figure operations render no report and leave it empty.
	Digest string `json:"digest,omitempty"`
	// Layer holds per-layer values a traced operation measured itself
	// (ratios, heap sizes, simulated results) beyond what the spans give.
	Layer  map[string]float64 `json:"layer,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	Counts map[string]float64 `json:"counts,omitempty"`
	// Store is a store root the process recorded. The parent audits it
	// (auditStore) outside the measured process, and removes it after an
	// operation.
	Store string `json:"store,omitempty"`
}

func (o *opOut) add(n, bad int) {
	o.Attempted += n
	o.Failed += bad
}

func (o *opOut) tally() tally { return tally{o.Attempted, o.Failed} }

type workloadDef struct {
	name string
	why  string
	// size is the suite's benchmark length factor (1.0 = pgss-bench's
	// default ~3·10⁹ ops over the paper ten).
	size float64
	make func() bench
}

var workloads = []workloadDef{
	{
		name: "fig12-warm",
		why:  "the main warm command: Fig 12 on a warm store; SimPoint k-means dominates, no CPU-model work",
		size: 0.05,
		make: func() bench { return &figBench{IDs: []string{"fig12"}} },
	},
	{
		name: "pgss-sweep",
		why:  "fig10 and fig11 on a warm store: only the PGSS replay engine (phase classify, core.Run), no clustering",
		size: 0.05,
		make: func() bench { return &figBench{IDs: []string{"fig10", "fig11"}} },
	},
	{
		name: "record-cold",
		why:  "first-run cost: detailed and warm-mode interpretation plus artifact writes into an empty store",
		size: 0.01,
		make: func() bench { return &recordBench{} },
	},
	{
		name: "campaign-live",
		why:  "six-technique campaign on a warm store: checkpoint-library reads, live PGSS sampling, journal appends",
		size: 0.01,
		make: func() bench { return &campaignBench{} },
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// defaultSeed reproduces pgss-bench's defaults: BBV hash seed 42 and
// campaign seed 1.
const defaultSeed = 1

// hashSeed maps the workload seed to the suite's BBV hash seed.
func hashSeed(seed int64) int64 { return seed + 41 }

// env is one process's configuration and scratch space.
type env struct {
	dir   string // the invocation's scratch directory, shared by its children
	seed  int64
	size  float64
	procs int
	ctx   context.Context
}

// freshStore returns a new, empty store root under the scratch space.
func (e *env) freshStore() (string, error) {
	parent := filepath.Join(e.dir, "stores")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "store-")
}

// suite opens an experiments.Suite over the store at root. Every run uses
// one shard and one sample worker, so jobs × per-run workers ≤ procs.
func (e *env) suite(root string) (*experiments.Suite, error) {
	opts := experiments.DefaultOptions()
	opts.SizeFactor = e.size
	opts.HashSeed = hashSeed(e.seed)
	opts.ArtifactDir = root
	opts.Quiet = true
	opts.Jobs = e.procs
	opts.Shards = 1
	opts.SampleWorkers = 1
	opts.Context = e.ctx
	return experiments.NewSuite(opts)
}

func sha(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// figBench regenerates figures on a warm store. Set-up regenerates them
// cold into a fresh store; every warm regeneration must render reports
// byte-identical to the cold ones.
type figBench struct {
	IDs   []string
	Store string
	// Cold holds the digests of the set-up's reports, and Metrics their
	// metrics, by figure id.
	Cold    map[string]string
	Metrics map[string]map[string]float64
}

func (b *figBench) setup(e *env) (opOut, error) {
	var o opOut
	root, err := e.freshStore()
	if err != nil {
		return o, err
	}
	s, err := e.suite(root)
	if err != nil {
		return o, err
	}
	out, metrics, err := b.render(s)
	if err != nil {
		return o, err
	}
	b.Store, b.Cold, b.Metrics = root, out, metrics
	o.add(len(b.IDs), 0)
	o.Digest = b.expect()
	return o, nil
}

// render regenerates every figure and returns its report digest and
// metrics by figure id.
func (b *figBench) render(s *experiments.Suite) (map[string]string, map[string]map[string]float64, error) {
	out := map[string]string{}
	metrics := map[string]map[string]float64{}
	for _, id := range b.IDs {
		rep, err := experiments.Run(s, id)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", id, err)
		}
		var buf bytes.Buffer
		rep.Fprint(&buf)
		out[id] = sha(buf.String())
		metrics[id] = rep.Metrics
	}
	return out, metrics, nil
}

// expect is the digest of the cold reports, in figure order.
func (b *figBench) expect() string {
	var parts []string
	for _, id := range b.IDs {
		parts = append(parts, b.Cold[id])
	}
	return sha(parts...)
}

func (b *figBench) run(e *env, tr *tracer, root int) (opOut, error) {
	s, err := e.suite(b.Store)
	if err != nil {
		return opOut{}, err
	}
	if tr != nil {
		return b.traced(s, tr, root)
	}
	var o opOut
	out, _, err := b.render(s)
	if err != nil {
		return o, err
	}
	var parts []string
	for _, id := range b.IDs {
		parts = append(parts, out[id])
	}
	o.add(len(b.IDs), 0)
	o.Digest = sha(parts...)
	return o, nil
}

// recordBench records the paper-ten profiles and then their checkpoint
// libraries into an empty store. Set-up builds the ten programs — the
// generated inputs every recording starts from.
type recordBench struct{}

func (b *recordBench) setup(e *env) (opOut, error) {
	for _, sp := range workload.PaperTen() {
		if _, err := sp.Build(targetOps(e, sp)); err != nil {
			return opOut{}, fmt.Errorf("build %s: %w", sp.Name, err)
		}
	}
	return opOut{}, nil
}

func (b *recordBench) expect() string { return "" }

// targetOps is the suite's recording length for spec at the workload size.
func targetOps(e *env, spec *workload.Spec) uint64 {
	return uint64(float64(spec.DefaultOps) * e.size)
}

func (b *recordBench) run(e *env, tr *tracer, root int) (opOut, error) {
	dir, err := e.freshStore()
	if err != nil {
		return opOut{}, err
	}
	var o opOut
	if tr != nil {
		o, err = b.traced(e, dir, tr, root)
	} else {
		var s *experiments.Suite
		if s, err = e.suite(dir); err == nil {
			o, err = recordAll(e, s)
		}
	}
	o.Store = dir
	return o, err
}

// recordAll records (or loads) the paper-ten profiles, then their
// checkpoint libraries, with e.procs jobs, through the suite. A library
// that fails to record counts as a failed operation.
func recordAll(e *env, s *experiments.Suite) (opOut, error) {
	var o opOut
	names := experiments.PaperTenNames()
	if _, err := s.PaperTen(); err != nil {
		return o, err
	}
	o.add(len(names), 0)
	specs := campaign.Grid(names, []string{"checkpoints"}, nil)
	rep, err := campaign.Run(e.ctx, specs, func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		_, err := s.CheckpointLibrary(sp.Benchmark)
		return sampling.Result{Benchmark: sp.Benchmark}, err
	}, campaign.Options{Jobs: e.procs, InnerShards: 1})
	if err != nil {
		return o, err
	}
	o.add(len(specs), rep.Failed+rep.Interrupted)
	return o, nil
}

// auditStore verifies every object of a freshly recorded store and sets
// o's digest to a fingerprint of the recorded content: one line per
// artifact, its kind, benchmark and content SHA, and a last line with the
// digest the process reported, if any. Unhealthy artifacts and surviving
// lock files count as failed operations.
func auditStore(root string, o *opOut) error {
	store, err := artifact.Open(root, artifact.Options{})
	if err != nil {
		return err
	}
	rep, err := store.Verify()
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	var lines []string
	for _, le := range store.List() {
		lines = append(lines, fmt.Sprintf("%s/%s=%s", le.Key.Kind, le.Key.Benchmark, le.ContentSHA))
	}
	sort.Strings(lines)
	if o.Digest != "" {
		lines = append(lines, "output="+o.Digest)
	}
	o.Digest = sha(lines...)
	bad := len(rep.Corrupt) + len(rep.Missing) + leftoverLocks(root)
	o.add(bad, bad)
	return nil
}

// leftoverLocks counts lock files left under a store root; a finished run
// must leave none.
func leftoverLocks(root string) int {
	entries, err := os.ReadDir(filepath.Join(root, "locks"))
	if err != nil {
		return 0
	}
	return len(entries)
}

// campaignBench runs the paper ten × six techniques × one seed campaign
// over a warm store, with an on-disk journal. Set-up records the store and
// runs the same campaign cold; every warm campaign must reproduce the cold
// one exactly (the store's cold ≡ warm contract).
type campaignBench struct {
	Store string
	// Cold is the digest of the set-up's cold campaign.
	Cold string
}

var campaignTechniques = []string{"PGSS", "PGSS-Live", "SMARTS", "TurboSMARTS", "2PSS", "RSS"}

func (b *campaignBench) specs(e *env) []campaign.Spec {
	return campaign.Grid(experiments.PaperTenNames(), campaignTechniques, []int64{e.seed})
}

func (b *campaignBench) setup(e *env) (opOut, error) {
	root, err := e.freshStore()
	if err != nil {
		return opOut{}, err
	}
	s, err := e.suite(root)
	if err != nil {
		return opOut{}, err
	}
	o, err := recordAll(e, s)
	b.Store, o.Store = root, root
	if err != nil {
		return o, err
	}
	rep, err := campaign.Run(e.ctx, b.specs(e), s.CampaignRun, campaignOptions(e, filepath.Join(e.dir, "campaign.jsonl")))
	if err != nil {
		return o, err
	}
	check(rep, root, &o)
	b.Cold = campaignDigest(rep)
	o.Digest = b.Cold
	return o, nil
}

func (b *campaignBench) expect() string { return b.Cold }

func (b *campaignBench) run(e *env, tr *tracer, root int) (opOut, error) {
	s, err := e.suite(b.Store)
	if err != nil {
		return opOut{}, err
	}
	journal := filepath.Join(e.dir, "campaign.jsonl")
	var o opOut
	var rep *campaign.Report
	if tr != nil {
		rep, o, err = b.traced(e, s, journal, tr, root)
	} else {
		rep, err = campaign.Run(e.ctx, b.specs(e), s.CampaignRun, campaignOptions(e, journal))
	}
	if err != nil {
		return o, err
	}
	check(rep, b.Store, &o)
	o.Digest = campaignDigest(rep)
	return o, nil
}

func campaignOptions(e *env, journal string) campaign.Options {
	return campaign.Options{Jobs: e.procs, InnerShards: 1, MaxAttempts: 2, JournalPath: journal}
}

// check counts the campaign's runs into o, failing every run that errored.
// A surviving lock file counts as one more failure.
//
// PGSS-Live results are not compared with PGSS replay results: the two
// are different measurements. Live windows are self-contained (the BBV
// tracker drops its pending ops at every window boundary, see
// parallel.LiveSource) while replayed windows sum the recorded BBVs, so a
// window near the phase threshold can classify differently and move the
// estimate. The gap is reported as sim.live_replay_gap_pct instead.
func check(rep *campaign.Report, store string, o *opOut) {
	for _, oc := range rep.Outcomes {
		if oc.Err != nil {
			o.add(1, 1)
		} else {
			o.add(1, 0)
		}
	}
	if n := leftoverLocks(store); n > 0 {
		o.add(n, n)
	}
}

// liveReplayGapPct is the mean over benchmarks of |PGSS-Live − PGSS| as a
// percentage of the PGSS replay estimate.
func liveReplayGapPct(rep *campaign.Report) float64 {
	byKey := map[string]sampling.Result{}
	for _, oc := range rep.Outcomes {
		byKey[oc.Spec.Key()] = oc.Result
	}
	var gaps []float64
	for _, oc := range rep.Outcomes {
		if oc.Spec.Technique != "PGSS-Live" {
			continue
		}
		replay := oc.Spec
		replay.Technique = "PGSS"
		r := byKey[replay.Key()].EstimatedIPC
		gaps = append(gaps, 100*math.Abs(oc.Result.EstimatedIPC-r)/r)
	}
	return stats.ArithmeticMean(gaps)
}

// campaignDigest fingerprints every run's result exactly.
func campaignDigest(rep *campaign.Report) string {
	lines := make([]string, 0, len(rep.Outcomes))
	for _, oc := range rep.Outcomes {
		r := oc.Result
		lines = append(lines, fmt.Sprintf("%s|%x|%x|%+v|%d|%d",
			oc.Spec.Key(), r.EstimatedIPC, r.TrueIPC, r.Costs, r.Samples, r.Phases))
	}
	sort.Strings(lines)
	return sha(lines...)
}
