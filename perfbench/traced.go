package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"

	"pgss/internal/artifact"
	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/experiments"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/stats"
	"pgss/internal/workload"
)

// The traced paths below perform the same work as the untraced
// operations, but call each layer's exported functions from this file so
// every call can be timed: the eight Fig 12 techniques and the Fig 11
// sweep are driven here in the figures' own order, PGSS-Live sources are
// built here with a timed core factory, and recordings run through
// artifact.Store with a timed record callback. Their results are checked
// against the untraced path's (report metrics, campaign results, artifact
// SHAs), so a traced path that drifts from the program fails its checks.

// traced regenerates the figures through the instrumented paths. Figures
// without one (fig10) run through experiments.Run inside their span.
func (b *figBench) traced(s *experiments.Suite, tr *tracer, root int) (opOut, error) {
	o := opOut{Layer: map[string]float64{}}
	before := s.Artifacts().List()
	id := tr.begin("artifact.load", root)
	profiles, err := s.PaperTen()
	tr.end(id)
	if err != nil {
		return o, err
	}
	o.Layer["artifact.hit_ratio"] = hitRatio(before, s.Artifacts().List())
	o.Layer["artifact.bytes"] = float64(s.Artifacts().TotalBytes())
	for _, fig := range b.IDs {
		fid := tr.begin("experiments.fig."+fig, root)
		var ok bool
		switch fig {
		case "fig12":
			ok, err = tracedFig12(s.Scale(), profiles, b.Metrics[fig], tr, fid, o.Layer)
		case "fig11":
			ok, err = tracedFig11(s.Scale(), profiles, b.Metrics[fig], tr, fid, o.Layer)
		default:
			var rep *experiments.Report
			if rep, err = experiments.Run(s, fig); err == nil {
				var buf bytes.Buffer
				rep.Fprint(&buf)
				ok = sha(buf.String()) == b.Cold[fig]
			}
		}
		tr.end(fid)
		if err != nil {
			return o, fmt.Errorf("%s: %w", fig, err)
		}
		if ok {
			o.add(1, 0)
		} else {
			o.add(1, 1)
		}
	}
	return o, nil
}

// hitRatio compares store index listings taken around a batch of lookups:
// an entry whose use generation advanced was a hit, a new entry a miss.
func hitRatio(before, after []artifact.ListEntry) float64 {
	prev := map[string]uint64{}
	for _, le := range before {
		prev[le.Hash] = le.LastUseGen
	}
	var hits, misses int
	for _, le := range after {
		gen, ok := prev[le.Hash]
		switch {
		case !ok:
			misses++
		case le.LastUseGen > gen:
			hits++
		}
	}
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runCore is one timed core.Run; it counts the run's BBV comparisons.
func runCore(p *profile.Profile, cfg core.Config, tr *tracer, parent int) (sampling.Result, error) {
	id := tr.begin("core.run", parent)
	res, st, err := core.Run(sampling.NewProfileTarget(p), cfg)
	tr.end(id)
	tr.count("core.comparisons", float64(st.Comparisons))
	return res, err
}

// pgssBest is core.Best with every core.Run timed: the lowest-error
// result over the sweep.
func pgssBest(p *profile.Profile, sweep []core.Config, tr *tracer, parent int) (sampling.Result, error) {
	var best sampling.Result
	for _, cfg := range sweep {
		r, err := runCore(p, cfg, tr, parent)
		if err != nil {
			continue
		}
		if best.Technique == "" || r.ErrorPct() < best.ErrorPct() {
			best = r
		}
	}
	if best.Technique == "" {
		return best, fmt.Errorf("pgss(best) on %s: no feasible configuration", p.Benchmark)
	}
	return best, nil
}

// fig12Technique is one row of Fig 12: its label, the layer its calls
// belong to, and the call.
type fig12Technique struct {
	label string
	layer string
	run   func(p *profile.Profile, tr *tracer, parent int) (sampling.Result, error)
}

func fig12Techniques(scale uint64) []fig12Technique {
	est, sp := "sampling.estimators", "sampling.simpoint"
	return []fig12Technique{
		{"SMARTS", est, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			return sampling.SMARTS(sampling.NewProfileTarget(p), sampling.DefaultSMARTSConfig(scale))
		}},
		{"TurboSMARTS", est, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			return sampling.TurboSMARTS(p, sampling.DefaultTurboSMARTSConfig(scale))
		}},
		{"SimPoint(best)", sp, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			best, _, err := sampling.SimPointBest(p, sampling.SimPointSweep(scale))
			return best, err
		}},
		{"SimPoint(10x100M)", sp, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			return sampling.SimPoint(p, sampling.SimPointOverall(scale))
		}},
		{"OnlineSP(best)", est, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			best, _, err := sampling.OnlineSimPointBest(p, sampling.OnlineSimPointSweep(scale))
			return best, err
		}},
		{"OnlineSP(100M/.1)", est, func(p *profile.Profile, _ *tracer, _ int) (sampling.Result, error) {
			return sampling.OnlineSimPoint(p, sampling.OnlineSimPointOverall(scale))
		}},
		// The PGSS rows time each core.Run themselves.
		{"PGSS(best)", "", func(p *profile.Profile, tr *tracer, parent int) (sampling.Result, error) {
			return pgssBest(p, core.Sweep(scale), tr, parent)
		}},
		{"PGSS(1M/.05)", "", func(p *profile.Profile, tr *tracer, parent int) (sampling.Result, error) {
			return runCore(p, core.DefaultConfig(scale), tr, parent)
		}},
	}
}

// tracedFig12 runs the eight Fig 12 techniques over the ten profiles and
// checks each technique's mean error and mean detailed volume against the
// set-up's report.
func tracedFig12(scale uint64, profiles []*profile.Profile, want map[string]float64,
	tr *tracer, parent int, layer map[string]float64) (bool, error) {
	ok := true
	for _, tech := range fig12Techniques(scale) {
		var errs, det []float64
		for _, p := range profiles {
			id := -1
			if tech.layer != "" {
				id = tr.begin(tech.layer, parent)
			}
			res, err := tech.run(p, tr, parent)
			tr.end(id)
			if err != nil {
				return false, fmt.Errorf("%s on %s: %w", tech.label, p.Benchmark, err)
			}
			errs = append(errs, res.ErrorPct())
			det = append(det, float64(res.Costs.DetailedTotal()))
		}
		errMean, detMean := stats.ArithmeticMean(errs), stats.ArithmeticMean(det)
		if errMean != want["err_amean_"+tech.label] || detMean != want["det_amean_"+tech.label] {
			ok = false
		}
		if tech.label == "PGSS(1M/.05)" {
			layer["sim.ipc_err_pct"] = errMean
			layer["sim.detailed_ops_m"] = detMean * float64(len(det)) / 1e6
		}
	}
	return ok, nil
}

// tracedFig11 runs the Fig 11 sweep — every (period, threshold) over the
// ten profiles — and checks every row mean and the best mean against the
// set-up's report.
func tracedFig11(scale uint64, profiles []*profile.Profile, want map[string]float64,
	tr *tracer, parent int, layer map[string]float64) (bool, error) {
	ok := true
	bestAM, bestDet := -1.0, 0.0
	for _, cfg := range core.Sweep(scale) {
		var errs []float64
		var det float64
		for _, p := range profiles {
			res, err := runCore(p, cfg, tr, parent)
			if err != nil {
				return false, fmt.Errorf("%s %s: %w", p.Benchmark, cfg, err)
			}
			errs = append(errs, res.ErrorPct())
			det += float64(res.Costs.DetailedTotal())
		}
		am := stats.ArithmeticMean(errs)
		if am != want[fmt.Sprintf("amean_ff%d_th%.2f", cfg.FFOps, cfg.ThresholdPi)] {
			ok = false
		}
		if bestAM < 0 || am < bestAM {
			bestAM, bestDet = am, det
		}
	}
	if bestAM != want["best_amean_pct"] {
		ok = false
	}
	layer["sim.ipc_err_pct"] = bestAM
	layer["sim.detailed_ops_m"] = bestDet / 1e6
	return ok, nil
}

// storeSchema mirrors the suite's artifact schema version so the traced
// recordings address the same objects the suite would.
const storeSchema = 8

func profileKey(e *env, name string, ops uint64) artifact.Key {
	cfg := profile.DefaultConfig()
	return artifact.Key{
		Kind: artifact.KindProfile, Benchmark: name, Ops: ops,
		HashBits: bbv.DefaultHashBits, HashSeed: hashSeed(e.seed),
		FineOps: cfg.FineOps, BBVOps: cfg.BBVOps, MAVBits: cfg.MAVBits, MAVSeed: cfg.MAVSeed,
		CoreConfig: artifact.ConfigLabel(cpu.DefaultCoreConfig()), Schema: storeSchema,
	}
}

func libraryKey(name string, ops, stride uint64) artifact.Key {
	return artifact.Key{
		Kind: artifact.KindCheckpoints, Benchmark: name, Ops: ops, StrideOps: stride,
		CoreConfig: artifact.ConfigLabel(cpu.DefaultCoreConfig()), Schema: storeSchema,
	}
}

// buildCore is the timed core factory: program generation plus machine
// and core construction, as the suite does before every recording and for
// every PGSS-Live shard and sampler.
func buildCore(tr *tracer, parent int, spec *workload.Spec, ops uint64) (*cpu.Core, error) {
	id := tr.begin("workload.build", parent)
	defer tr.end(id)
	tr.count("workload.builds", 1)
	prog, err := spec.Build(ops)
	if err != nil {
		return nil, err
	}
	m, err := cpu.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, cpu.DefaultCoreConfig())
}

// heapMB returns the live Go heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// grid runs one campaign under a campaign.grid span, wrapping every run
// in a campaign.run span whose id the run function receives.
func grid(e *env, tr *tracer, root int, specs []campaign.Spec, opts campaign.Options,
	fn func(ctx context.Context, sp campaign.Spec, parent int) (sampling.Result, error)) (*campaign.Report, error) {
	gid := tr.begin("campaign.grid", root)
	defer tr.end(gid)
	return campaign.Run(e.ctx, specs, func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		id := tr.begin("campaign.run", gid)
		defer tr.end(id)
		return fn(ctx, sp, id)
	}, opts)
}

// traced records the profiles and then the libraries through
// artifact.Store with timed record callbacks, so store time minus
// callback time is the publish cost.
func (b *recordBench) traced(e *env, dir string, tr *tracer, root int) (opOut, error) {
	o := opOut{Layer: map[string]float64{}}
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		return o, err
	}
	hash, err := bbv.NewHash(bbv.DefaultHashBits, hashSeed(e.seed))
	if err != nil {
		return o, err
	}
	names := experiments.PaperTenNames()
	stride := 4 * core.DefaultConfig(experiments.DefaultOptions().Scale).FFOps
	opts := campaign.Options{Jobs: e.procs, InnerShards: 1}

	rep, err := grid(e, tr, root, campaign.Grid(names, []string{"record"}, nil), opts,
		func(ctx context.Context, sp campaign.Spec, parent int) (sampling.Result, error) {
			spec, err := workload.Get(sp.Benchmark)
			if err != nil {
				return sampling.Result{}, err
			}
			ops := targetOps(e, spec)
			id := tr.begin("artifact.store", parent)
			defer tr.end(id)
			_, err = store.Profile(profileKey(e, sp.Benchmark, ops), func() (*profile.Profile, error) {
				tr.count("artifact.misses", 1)
				c, err := buildCore(tr, id, spec, ops)
				if err != nil {
					return nil, err
				}
				rid := tr.begin("profile.record", id)
				p, err := profile.RecordContext(ctx, c, hash, profile.DefaultConfig())
				tr.end(rid)
				if err == nil {
					tr.count("profile.ops", float64(p.TotalOps))
				}
				return p, err
			})
			return sampling.Result{Benchmark: sp.Benchmark}, err
		})
	if err != nil {
		return o, err
	}
	o.add(len(names), rep.Failed+rep.Interrupted)

	heap0 := heapMB()
	libs := make([]*checkpoint.Library, len(names))
	index := map[string]int{}
	for i, n := range names {
		index[n] = i
	}
	rep, err = grid(e, tr, root, campaign.Grid(names, []string{"checkpoints"}, nil), opts,
		func(ctx context.Context, sp campaign.Spec, parent int) (sampling.Result, error) {
			spec, err := workload.Get(sp.Benchmark)
			if err != nil {
				return sampling.Result{}, err
			}
			ops := targetOps(e, spec)
			id := tr.begin("artifact.store", parent)
			defer tr.end(id)
			lib, err := store.Library(libraryKey(sp.Benchmark, ops, stride), func() (*checkpoint.Library, error) {
				tr.count("artifact.misses", 1)
				c, err := buildCore(tr, id, spec, ops)
				if err != nil {
					return nil, err
				}
				rid := tr.begin("checkpoint.record", id)
				lib, err := checkpoint.Record(c, stride, ops)
				tr.end(rid)
				tr.count("checkpoint.ops", float64(c.M.Retired()))
				return lib, err
			})
			if err == nil {
				libs[index[sp.Benchmark]] = lib
				tr.count("checkpoint.count", float64(lib.Len()))
			}
			return sampling.Result{Benchmark: sp.Benchmark}, err
		})
	if err != nil {
		return o, err
	}
	o.add(len(names), rep.Failed+rep.Interrupted)
	o.Layer["checkpoint.heap_mb"] = heapMB() - heap0
	runtime.KeepAlive(libs)
	o.Layer["artifact.bytes"] = float64(store.TotalBytes())
	_, counts := tr.snapshot()
	o.Layer["artifact.hit_ratio"] = 1 - counts["artifact.misses"]/float64(2*len(names))
	// Every recorded profile op is simulated in detail: the detailed ops
	// this operation charges.
	o.Layer["sim.detailed_ops_m"] = counts["profile.ops"] / 1e6
	return o, nil
}

// traced runs the campaign with every layer timed: the store loads first
// (the libraries bracketed by heap readings), then the grid, where PGSS
// replay and PGSS-Live runs are driven here and the other techniques go
// through the suite's own CampaignRun.
func (b *campaignBench) traced(e *env, s *experiments.Suite, journal string, tr *tracer, root int) (*campaign.Report, opOut, error) {
	o := opOut{Layer: map[string]float64{}}
	before := s.Artifacts().List()
	id := tr.begin("artifact.load", root)
	profiles, err := s.PaperTen()
	tr.end(id)
	if err != nil {
		return nil, o, err
	}
	heap0 := heapMB()
	for _, p := range profiles {
		id := tr.begin("artifact.load", root)
		lib, err := s.CheckpointLibrary(p.Benchmark)
		tr.end(id)
		if err != nil {
			return nil, o, err
		}
		tr.count("checkpoint.count", float64(lib.Len()))
	}
	o.Layer["checkpoint.heap_mb"] = heapMB() - heap0
	o.Layer["artifact.hit_ratio"] = hitRatio(before, s.Artifacts().List())
	o.Layer["artifact.bytes"] = float64(s.Artifacts().TotalBytes())

	scale := s.Scale()
	rep, err := grid(e, tr, root, b.specs(e), campaignOptions(e, journal),
		func(ctx context.Context, sp campaign.Spec, parent int) (sampling.Result, error) {
			p, err := s.Profile(sp.Benchmark)
			if err != nil {
				return sampling.Result{}, err
			}
			switch sp.Technique {
			case "PGSS":
				id := tr.begin("core.run", parent)
				res, st, err := core.RunContext(ctx, sampling.NewProfileTarget(p), core.DefaultConfig(scale))
				tr.end(id)
				tr.count("core.comparisons", float64(st.Comparisons))
				return res, err
			case "PGSS-Live":
				return liveRun(ctx, e, s, p, tr, parent)
			default:
				id := tr.begin("sampling.estimators", parent)
				defer tr.end(id)
				return s.CampaignRun(ctx, sp)
			}
		})
	if err != nil {
		return nil, o, err
	}
	var live []float64
	var liveDet float64
	for _, oc := range rep.Outcomes {
		o.Layer["campaign.retries"] += float64(oc.Attempts - 1)
		if oc.Spec.Technique == "PGSS-Live" {
			live = append(live, oc.Result.ErrorPct())
			liveDet += float64(oc.Result.Costs.DetailedTotal())
		}
	}
	o.Layer["sim.ipc_err_pct"] = stats.ArithmeticMean(live)
	o.Layer["sim.detailed_ops_m"] = liveDet / 1e6
	o.Layer["sim.live_replay_gap_pct"] = liveReplayGapPct(rep)
	return rep, o, nil
}

// liveRun is the suite's PGSS-Live run rebuilt from exported calls: a live
// source over the stored checkpoint library, with a timed core factory
// and timed windows and samples, on one shard and one sample worker.
func liveRun(ctx context.Context, e *env, s *experiments.Suite, p *profile.Profile, tr *tracer, parent int) (sampling.Result, error) {
	spec, err := workload.Get(p.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	lib, err := s.CheckpointLibrary(p.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	ops := targetOps(e, spec)
	newCore := func() (*cpu.Core, error) { return buildCore(tr, parent, spec, ops) }
	src, err := parallel.NewLiveSource(lib, s.Hash(), newCore, p.TotalOps, p.TrueIPC())
	if err != nil {
		return sampling.Result{}, err
	}
	res, _, err := parallel.Run(ctx, &timedSource{Source: src, tr: tr, parent: parent},
		core.DefaultConfig(s.Scale()), parallel.Options{Shards: 1, SampleWorkers: 1})
	return res, err
}

// timedSource wraps a parallel.Source, timing window computation (shard
// fast-forward) and every detailed sample.
type timedSource struct {
	parallel.Source
	tr     *tracer
	parent int
}

func (t *timedSource) Windows(ctx context.Context, ffOps uint64, first int, out []parallel.Window) error {
	id := t.tr.begin("parallel.windows", t.parent)
	err := t.Source.Windows(ctx, ffOps, first, out)
	t.tr.end(id)
	var ops uint64
	for _, w := range out {
		ops += w.Ops
	}
	t.tr.count("parallel.ff_ops", float64(ops))
	return err
}

func (t *timedSource) NewSampler() (parallel.Sampler, error) {
	smp, err := t.Source.NewSampler()
	if err != nil {
		return nil, err
	}
	return &timedSampler{Sampler: smp, tr: t.tr, parent: t.parent}, nil
}

type timedSampler struct {
	parallel.Sampler
	tr     *tracer
	parent int
}

func (t *timedSampler) Sample(pos, warm, sample uint64) (float64, error) {
	id := t.tr.begin("parallel.sample", t.parent)
	ipc, err := t.Sampler.Sample(pos, warm, sample)
	t.tr.end(id)
	t.tr.count("parallel.samples", 1)
	return ipc, err
}
