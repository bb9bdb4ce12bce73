package experiments

import (
	"context"
	"fmt"

	"pgss/internal/campaign"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/pgsserrors"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// CampaignTechniques lists the techniques the campaign runner can execute,
// in report order. Seeded techniques (TurboSMARTS, SimPoint, Stratified)
// vary with the spec seed; the deterministic ones ignore it.
func CampaignTechniques() []string {
	return []string{
		"PGSS", "PGSS-Live", "PGSS-Adaptive", "SMARTS", "TurboSMARTS",
		"SimPoint", "OnlineSimPoint", "Stratified", "2PSS", "RSS", "Full",
	}
}

// CampaignSpecs builds the benchmark × technique × seed grid. seeds = 1
// runs each pair once with seed 1.
func CampaignSpecs(benchmarks, techniques []string, seeds int) []campaign.Spec {
	if seeds < 1 {
		seeds = 1
	}
	seedVals := make([]int64, seeds)
	for i := range seedVals {
		seedVals[i] = int64(i + 1)
	}
	return campaign.Grid(benchmarks, techniques, seedVals)
}

// CampaignRun executes one campaign spec: it resolves the benchmark's
// profile (recording on first use, shared across runs) and dispatches to
// the spec's technique at the suite's scale. It is the campaign.RunFunc of
// the pgss-bench campaign mode.
func (s *Suite) CampaignRun(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
	p, err := s.Profile(sp.Benchmark)
	if err != nil {
		return sampling.Result{}, err
	}
	scale := s.Scale()
	//pgss:enum technique
	switch sp.Technique {
	case "PGSS":
		if s.opts.Shards > 1 || s.opts.SampleWorkers > 1 {
			res, _, err := parallel.Run(ctx, parallel.NewProfileSource(p), core.DefaultConfig(scale),
				parallel.Options{Shards: s.opts.Shards, SampleWorkers: s.opts.SampleWorkers})
			return res, err
		}
		res, _, err := core.RunContext(ctx, sampling.NewProfileTarget(p), core.DefaultConfig(scale))
		return res, err
	case "PGSS-Live":
		// Checkpoint-accelerated live execution: the benchmark's checkpoint
		// library (recorded once, shared via the artifact store when one is
		// configured) lets every detailed sample restore from the nearest
		// stored checkpoint instead of fast-forwarding from op 0. The
		// recorded profile supplies only TrueIPC for reporting.
		lib, err := s.CheckpointLibrary(sp.Benchmark)
		if err != nil {
			return sampling.Result{}, err
		}
		spec, err := workload.Get(sp.Benchmark)
		if err != nil {
			return sampling.Result{}, err
		}
		// Cores must be built at the same length as the library's recording
		// core (the snapshot pins the machine footprint); the profile's
		// TotalOps is the retired count, which the generator may round.
		// Every core of the run shares one build: programs are immutable
		// once built, and Build is deterministic.
		prog, err := spec.Build(s.targetOps(spec))
		if err != nil {
			return sampling.Result{}, err
		}
		newCore := func() (*cpu.Core, error) { return coreOver(prog) }
		src, err := parallel.NewLiveSource(lib, s.hash, newCore, p.TotalOps, p.TrueIPC())
		if err != nil {
			return sampling.Result{}, err
		}
		res, _, err := parallel.Run(ctx, src, core.DefaultConfig(scale),
			parallel.Options{Shards: s.opts.Shards, SampleWorkers: s.opts.SampleWorkers})
		return res, err
	case "PGSS-Adaptive":
		res, _, err := core.RunAdaptive(sampling.NewProfileTarget(p), core.DefaultAdaptiveConfig(scale))
		return res, err
	case "SMARTS":
		return sampling.SMARTS(sampling.NewProfileTarget(p), sampling.DefaultSMARTSConfig(scale))
	case "TurboSMARTS":
		cfg := sampling.DefaultTurboSMARTSConfig(scale)
		cfg.Seed = sp.Seed
		return sampling.TurboSMARTS(p, cfg)
	case "SimPoint":
		cfg := sampling.SimPointOverall(scale)
		cfg.Seed = sp.Seed
		return sampling.SimPoint(p, cfg)
	case "OnlineSimPoint":
		return sampling.OnlineSimPoint(p, sampling.OnlineSimPointOverall(scale))
	case "Stratified":
		cfg := sampling.DefaultStratifiedConfig(scale)
		cfg.Seed = sp.Seed
		return sampling.Stratified(p, cfg)
	case "2PSS":
		cfg := sampling.DefaultTwoPhaseConfig(scale)
		cfg.Seed = sp.Seed
		return sampling.TwoPhase(p, cfg)
	case "RSS":
		cfg := sampling.DefaultRankedSetConfig(scale)
		cfg.Seed = sp.Seed
		return sampling.RankedSet(p, cfg)
	case "Full":
		return sampling.Full(sampling.NewProfileTarget(p), p.BBVOps)
	default:
		return sampling.Result{}, pgsserrors.Invalidf(
			"experiments: unknown campaign technique %q (have %v)", sp.Technique, CampaignTechniques())
	}
}

// ResolveTechniques expands "all" and validates technique names.
func ResolveTechniques(names []string) ([]string, error) {
	known := map[string]bool{}
	for _, t := range CampaignTechniques() {
		known[t] = true
	}
	var out []string
	for _, n := range names {
		if n == "all" {
			return CampaignTechniques(), nil
		}
		if !known[n] {
			return nil, fmt.Errorf("experiments: unknown technique %q (have %v or 'all')",
				n, CampaignTechniques())
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return CampaignTechniques(), nil
	}
	return out, nil
}
