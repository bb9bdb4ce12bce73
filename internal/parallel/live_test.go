package parallel

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/workload"
)

// TestLiveWindowsMatchOracle: functional-only windows equal the oracle's
// warm-mode windows on every paper-ten program, with and without the MAV
// channel, for shards that start on a checkpoint, just after one and just
// before one, and whole live runs on every channel equal the oracle's run
// for every Shards 1/2/4 × SampleWorkers 1/2 layout.
func TestLiveWindowsMatchOracle(t *testing.T) {
	const (
		ops    = 300_000
		stride = 50_000
	)
	for _, spec := range workload.PaperTen() {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			src := liveSource(t, spec.Name, ops, stride)
			for _, mav := range []bool{false, true} {
				if mav {
					src.EnableMAV(bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42))
				}
				oracle := oracleLiveSource{src}
				// 10_000-op windows start shard 5 on the 50_000 checkpoint;
				// 10_001-op windows start it just after, 9_999-op windows
				// just before.
				for _, ffOps := range []uint64{10_000, 10_001, 9_999} {
					n := int((src.TotalOps() + ffOps - 1) / ffOps)
					for _, first := range []int{0, 5, n - 1} {
						name := fmt.Sprintf("mav=%v ff=%d first=%d", mav, ffOps, first)
						got := make([]Window, min(4, n-first))
						want := make([]Window, len(got))
						if err := src.Windows(context.Background(), ffOps, first, got); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := oracle.Windows(context.Background(), ffOps, first, want); err != nil {
							t.Fatalf("%s: oracle: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s: windows differ from the oracle", name)
						}
					}
				}
			}
		})
	}

	src := liveSource(t, "181.mcf", 600_000, stride)
	src.EnableMAV(bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42))
	for _, ch := range []bbv.Channel{bbv.ChannelBBV, bbv.ChannelMAV, bbv.ChannelBoth} {
		t.Run("run/"+ch.String(), func(t *testing.T) {
			cfg := testConfig()
			cfg.FFOps = 20_000
			cfg.SpreadOps = 20_000
			cfg.Trace = true
			cfg.Channel = ch
			ref, refSt, err := Run(context.Background(), oracleLiveSource{src}, cfg, Options{Shards: 1, SampleWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Samples == 0 {
				t.Fatal("oracle run took no samples — the comparison would be vacuous")
			}
			for _, shards := range []int{1, 2, 4} {
				for _, workers := range []int{1, 2} {
					opts := Options{Shards: shards, SampleWorkers: workers}
					res, st, err := Run(context.Background(), src, cfg, opts)
					if err != nil {
						t.Fatalf("%+v: %v", opts, err)
					}
					if !reflect.DeepEqual(res, ref) || !reflect.DeepEqual(st, refSt) {
						t.Errorf("%+v: live run diverged from the oracle:\n got %+v\nwant %+v", opts, res, ref)
					}
				}
			}
		})
	}
}
