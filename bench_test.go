// Benchmarks that regenerate every table and figure of the C3D paper at a
// reduced ("quick") scale, plus micro-benchmarks of the simulator's building
// blocks. Each experiment benchmark prints the headline metric it produces so
// a bench run doubles as a smoke reproduction:
//
//	go test -bench=. -benchmem .
//
// Paper-scale numbers are produced by cmd/c3dexp (see the README's Quickstart
// and scaling-study sections); the quick scale preserves the qualitative
// shape (who wins, roughly by how much) while keeping each benchmark
// iteration to a few seconds on one core. The quick-scale fig6 output is
// pinned byte for byte by pkg/c3d/testdata/fig6-quick-golden.json.
package c3d_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"c3d/internal/core"
	"c3d/internal/experiments"
	"c3d/internal/machine"
	"c3d/internal/mc"
	"c3d/internal/sample"
	"c3d/internal/sweep"
	"c3d/internal/trace"
	"c3d/internal/workload"
)

// benchConfig is the reduced configuration shared by the experiment
// benchmarks.
func benchConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workloads = benchWorkloads("streamcluster", "canneal", "nutch")
	return cfg
}

// benchWorkloads resolves built-in workload names for an experiment config.
func benchWorkloads(names ...string) []workload.Spec {
	out := make([]workload.Spec, len(names))
	for i, n := range names {
		out[i] = workload.MustGet(n)
	}
	return out
}

// BenchmarkTable1RemoteFraction regenerates Table I: the fraction of memory
// accesses served by remote memory on the 4-socket baseline.
func BenchmarkTable1RemoteFraction(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableI(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Average*100, "%remote")
	}
}

// BenchmarkFig2NUMABottleneck regenerates Fig. 2: the speedup from removing
// inter-socket latency versus removing bandwidth limits.
func BenchmarkFig2NUMABottleneck(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean["0_qpi_lat"], "x-zero-lat")
		b.ReportMetric(res.Geomean["inf_mem_bw+inf_qpi_bw"], "x-inf-bw")
	}
}

// BenchmarkFig3CacheCapacity regenerates Fig. 3: memory accesses versus LLC
// capacity.
func BenchmarkFig3CacheCapacity(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean[experiments.Fig3Capacities[3]], "norm-mem-1GB")
	}
}

// BenchmarkFig6QuadSocket regenerates Fig. 6: the 4-socket performance
// comparison.
func BenchmarkFig6QuadSocket(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean["c3d"], "x-c3d")
		b.ReportMetric(res.Geomean["snoopy"], "x-snoopy")
	}
}

// BenchmarkFig7DualSocket regenerates Fig. 7: the 2-socket comparison.
func BenchmarkFig7DualSocket(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean["c3d"], "x-c3d")
	}
}

// BenchmarkFig8MemoryTraffic regenerates Fig. 8: C3D's remote memory traffic
// normalised to the baseline.
func BenchmarkFig8MemoryTraffic(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GeomeanReads, "norm-reads")
		b.ReportMetric(res.GeomeanWrites, "norm-writes")
	}
}

// BenchmarkFig9InterSocketTraffic regenerates Fig. 9: inter-socket traffic
// per design, normalised to the baseline.
func BenchmarkFig9InterSocketTraffic(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Geomean["c3d"], "norm-c3d")
		b.ReportMetric(res.Geomean["snoopy"], "norm-snoopy")
	}
}

// BenchmarkFig10DRAMCacheLatency regenerates Fig. 10: sensitivity to the DRAM
// cache latency.
func BenchmarkFig10DRAMCacheLatency(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Workloads = benchWorkloads("streamcluster", "canneal")
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[50]["c3d"], "x-c3d-50ns")
	}
}

// BenchmarkFig11InterSocketLatency regenerates Fig. 11: sensitivity to the
// inter-socket hop latency.
func BenchmarkFig11InterSocketLatency(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Workloads = benchWorkloads("streamcluster", "canneal")
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup[30]["c3d"], "x-c3d-30ns")
	}
}

// BenchmarkSec6CBroadcastFilter regenerates the §VI-C broadcast-filter study.
func BenchmarkSec6CBroadcastFilter(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Workloads = benchWorkloads("streamcluster")
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sec6C(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PerWorkload["mcf"].BroadcastReduction*100, "%mcf-bcast-cut")
	}
}

// BenchmarkProtocolModelCheck regenerates the §IV-C verification: an
// exhaustive exploration of the 2-socket protocol configuration. Run
// single-worker, it doubles as the allocation trajectory of the checker's
// serial hot path (see TestModelCheckAllocationGuard in internal/mc).
func BenchmarkProtocolModelCheck(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		model := core.NewProtocolModel(core.ProtocolConfig{Sockets: 2, LoadsPerCore: 1, StoresPerCore: 1})
		report := mc.Run(context.Background(), model, mc.Options{Parallelism: 1})
		if !report.OK() {
			b.Fatalf("verification failed: %s", report)
		}
		b.ReportMetric(float64(report.StatesExplored), "states")
	}
}

// BenchmarkProtocolModelCheckParallel measures the parallel search engine on
// the 3-socket configuration (bounded so an iteration stays in seconds) at
// 1, 2, 4 and 8 workers. The reports are bit-identical across the
// sub-benchmarks — only wall-clock time may differ — so the ns/op ratio
// between p1 and p8 is the speedup of the engine itself.
func BenchmarkProtocolModelCheckParallel(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				model := core.NewProtocolModel(core.ProtocolConfig{Sockets: 3, LoadsPerCore: 1, StoresPerCore: 1})
				report := mc.Run(context.Background(), model, mc.Options{MaxStates: 250_000, Parallelism: p})
				if !report.Passed() {
					b.Fatalf("verification failed: %s", report)
				}
				b.ReportMetric(float64(report.StatesExplored), "states")
			}
		})
	}
}

// BenchmarkPrivateVsShared regenerates the §II-C organisation comparison.
func BenchmarkPrivateVsShared(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Workloads = benchWorkloads("streamcluster")
	for i := 0; i < b.N; i++ {
		res, err := experiments.PrivateVsShared(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TrafficReduction["streamcluster"]["c3d"]*100, "%traffic-cut-private")
	}
}

// BenchmarkAblation regenerates the design-choice ablation (clean property,
// non-inclusive directory, miss predictor).
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	cfg := benchConfig()
	cfg.Workloads = benchWorkloads("facesim")
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CleanProperty["facesim"], "x-clean-property")
	}
}

// --- micro-benchmarks of the simulator's building blocks ---

// BenchmarkMachineSimulation measures raw simulation throughput
// (accesses simulated per second) of the C3D machine. Each iteration builds
// its machine and runs the trace once, as every simulation does, so ns/op and
// allocs/op include construction.
func BenchmarkMachineSimulation(b *testing.B) {
	b.ReportAllocs()
	spec := workload.MustGet("streamcluster")
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 5000}
	tr := workload.MustGenerate(spec, opts)
	accesses := tr.Accesses()
	cfg := machine.DefaultConfig(4, machine.C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.New(cfg).RunSource(context.Background(), tr.Source(), machine.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(accesses*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkMachineSimulationSampled measures SMARTS-style sampled simulation
// against the full detailed run on the same machine and trace. Each iteration
// runs the trace once sampled and once in full, timing the halves separately
// with b.Elapsed snapshots, so ns/op covers the pair while the reported
// metrics separate them: sampled accesses/s (the stream length divided by the
// sampled half's wall-clock) and x-vs-full, the full/sampled wall-clock ratio
// that measures the sampling speedup. Each half builds its own machine, so
// both include construction.
func BenchmarkMachineSimulationSampled(b *testing.B) {
	b.ReportAllocs()
	wspec := workload.MustGet("streamcluster")
	opts := workload.Options{Threads: 8, Scale: 512, AccessesPerThread: 5000}
	tr := workload.MustGenerate(wspec, opts)
	accesses := tr.Accesses()
	cfg := machine.DefaultConfig(4, machine.C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 2
	sampled := machine.DefaultRunOptions()
	sampled.Sampling = sample.Spec{Stretch: 700, Warm: 60, Window: 60, Seed: 1}
	var sampledTime, fullTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e0 := b.Elapsed()
		if _, err := machine.New(cfg).RunSource(context.Background(), tr.Source(), sampled); err != nil {
			b.Fatal(err)
		}
		e1 := b.Elapsed()
		if _, err := machine.New(cfg).RunSource(context.Background(), tr.Source(), machine.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
		sampledTime += e1 - e0
		fullTime += b.Elapsed() - e1
	}
	b.ReportMetric(float64(accesses*b.N)/sampledTime.Seconds(), "accesses/s")
	b.ReportMetric(fullTime.Seconds()/sampledTime.Seconds(), "x-vs-full")
}

// BenchmarkTraceStream drives the full streaming trace pipeline — incremental
// generation → chunked encode → sequential streaming decode — end to end
// through an in-process pipe, at 1× and 100× the quick stream length. Nothing
// is materialised anywhere in the pipeline, so allocs/op is independent of
// stream length (the O(1)-memory claim of the streaming layer); only ns/op
// scales with the record count.
func BenchmarkTraceStream(b *testing.B) {
	spec := workload.MustGet("streamcluster")
	for _, mult := range []int{1, 100} {
		b.Run(fmt.Sprintf("len%dx", mult), func(b *testing.B) {
			b.ReportAllocs()
			opts := workload.Options{Threads: 4, Scale: 512, AccessesPerThread: 2000 * mult}
			src, err := workload.NewSource(spec, opts)
			if err != nil {
				b.Fatal(err)
			}
			records := int64(src.InitLen())
			for t := 0; t < src.Threads(); t++ {
				records += int64(src.ThreadLen(t))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr, pw := io.Pipe()
				go func() {
					pw.CloseWithError(trace.EncodeSource(pw, src))
				}()
				var got int64
				if _, err := trace.Scan(pr, func(thread int, rec trace.Record) error {
					got++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if got != records {
					b.Fatalf("streamed %d records, want %d", got, records)
				}
			}
			b.ReportMetric(float64(records*int64(b.N))/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// BenchmarkTraceGeneration measures synthetic trace generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	spec := workload.MustGet("canneal")
	opts := workload.Options{Threads: 8, Scale: 64, AccessesPerThread: 20_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.SeedOffset = int64(i)
		tr := workload.MustGenerate(spec, opts)
		if tr.Accesses() == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkMachineSimulationManyCores measures scheduler scalability: the
// "pick the earliest core" structure is exercised with 64 cores, where the
// old O(cores) linear scan dominated. Reported accesses/s should stay in the
// same ballpark as the 8-thread benchmark rather than collapsing. Like
// BenchmarkMachineSimulation, each iteration builds its machine.
func BenchmarkMachineSimulationManyCores(b *testing.B) {
	b.ReportAllocs()
	spec := workload.MustGet("streamcluster")
	opts := workload.Options{Threads: 64, Scale: 512, AccessesPerThread: 1000}
	tr := workload.MustGenerate(spec, opts)
	accesses := tr.Accesses()
	cfg := machine.DefaultConfig(4, machine.C3D)
	cfg.Scale = 512
	cfg.CoresPerSocket = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.New(cfg).RunSource(context.Background(), tr.Source(), machine.DefaultRunOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(accesses*b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkSweepOverhead measures the sweep harness itself (job dispatch and
// result collection) with trivial jobs, so harness regressions are
// visible independently of simulation cost.
func BenchmarkSweepOverhead(b *testing.B) {
	b.ReportAllocs()
	jobs := make([]sweep.Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = sweep.Job[int]{
			Key:  fmt.Sprintf("job-%d", i),
			Seed: int64(i),
			Run:  func(_ context.Context, seed int64) (int, error) { return i + int(seed%3), nil },
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), jobs, sweep.Options{Parallelism: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
