package workload

import (
	"fmt"
	"sort"

	"c3d/internal/numa"
)

// Region sizes are expressed at paper scale (1 GB DRAM cache per socket,
// 16 MB LLC per socket); Options.Scale shrinks them together with the caches
// so the capacity ratios — which decide hit rates and therefore every result
// — are preserved.
const mib = 1 << 20

// The parameters below are not measurements of the original benchmarks; they
// are the knobs of the synthetic generator chosen so each workload plays the
// same role it plays in the paper's evaluation:
//
//   - streamcluster: shared working set fits entirely in the DRAM caches;
//     the biggest C3D winner (+50.7% in Fig. 6).
//   - facesim / fluidanimate: PARSEC workloads with heavy producer/consumer
//     communication, the cases where the dirty-cache designs (snoopy,
//     full-dir) suffer the slow-remote-hit pathology.
//   - freqmine / canneal: large-footprint PARSEC workloads with moderate
//     communication; DRAM caches filter part of the traffic.
//   - tunkrank: graph analytics with a larger thread-private component
//     (lowest remote fraction in Table I, 61.6%).
//   - nutch: front-end/back-end thread pairs communicating through buffers
//     larger than the LLC — the server workload where full-dir loses badly.
//   - cassandra / classification: server workloads with little inter-thread
//     communication, where even full-dir gains over the baseline.
//   - mcf: the single-threaded SPEC workload used in §VI-C to evaluate the
//     TLB-based broadcast filter.
var builtins = []Spec{
	{
		Name: "facesim", Class: Parallel,
		SharedBytes: 1536 * mib, PrivateBytesPerThread: 4 * mib, MailboxBytesPerThread: 32 * mib,
		SharedFraction: 0.82, CommFraction: 0.10, ReadFraction: 0.75,
		LocalitySkew: 2.6, SpatialRun: 8, MeanGap: 6,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 101,
	},
	{
		Name: "streamcluster", Class: Parallel,
		SharedBytes: 640 * mib, PrivateBytesPerThread: 2 * mib, MailboxBytesPerThread: 8 * mib,
		SharedFraction: 0.92, CommFraction: 0.02, ReadFraction: 0.88,
		LocalitySkew: 1.4, SpatialRun: 8, MeanGap: 5,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 102,
	},
	{
		Name: "freqmine", Class: Parallel,
		SharedBytes: 1664 * mib, PrivateBytesPerThread: 8 * mib, MailboxBytesPerThread: 24 * mib,
		SharedFraction: 0.84, CommFraction: 0.05, ReadFraction: 0.82,
		LocalitySkew: 3.0, SpatialRun: 6, MeanGap: 7,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 103,
	},
	{
		Name: "fluidanimate", Class: Parallel,
		SharedBytes: 1280 * mib, PrivateBytesPerThread: 6 * mib, MailboxBytesPerThread: 32 * mib,
		SharedFraction: 0.80, CommFraction: 0.08, ReadFraction: 0.72,
		LocalitySkew: 2.4, SpatialRun: 6, MeanGap: 6,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.FirstTouch2, Seed: 104,
	},
	{
		Name: "canneal", Class: Parallel,
		SharedBytes: 2560 * mib, PrivateBytesPerThread: 4 * mib, MailboxBytesPerThread: 16 * mib,
		SharedFraction: 0.88, CommFraction: 0.04, ReadFraction: 0.78,
		LocalitySkew: 1.9, SpatialRun: 2, MeanGap: 5,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 105,
	},
	{
		Name: "tunkrank", Class: Graph,
		SharedBytes: 1024 * mib, PrivateBytesPerThread: 96 * mib, MailboxBytesPerThread: 8 * mib,
		SharedFraction: 0.58, CommFraction: 0.03, ReadFraction: 0.82,
		LocalitySkew: 2.2, SpatialRun: 3, MeanGap: 8,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.FirstTouch2, Seed: 106,
	},
	{
		Name: "nutch", Class: Server,
		SharedBytes: 3072 * mib, PrivateBytesPerThread: 8 * mib, MailboxBytesPerThread: 48 * mib,
		SharedFraction: 0.74, CommFraction: 0.12, ReadFraction: 0.80,
		LocalitySkew: 2.0, SpatialRun: 6, MeanGap: 9,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 107,
	},
	{
		Name: "cassandra", Class: Server,
		SharedBytes: 2048 * mib, PrivateBytesPerThread: 12 * mib, MailboxBytesPerThread: 4 * mib,
		SharedFraction: 0.83, CommFraction: 0.01, ReadFraction: 0.86,
		LocalitySkew: 2.6, SpatialRun: 6, MeanGap: 9,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.Interleave, Seed: 108,
	},
	{
		Name: "classification", Class: Server,
		SharedBytes: 1792 * mib, PrivateBytesPerThread: 10 * mib, MailboxBytesPerThread: 4 * mib,
		SharedFraction: 0.81, CommFraction: 0.01, ReadFraction: 0.80,
		LocalitySkew: 2.9, SpatialRun: 8, MeanGap: 8,
		AccessesPerThread: 200_000, InitFraction: 1.5,
		DefaultThreads: 32, PreferredPolicy: numa.FirstTouch2, Seed: 109,
	},
	{
		Name: "mcf", Class: SingleThreaded,
		SharedBytes: 0, PrivateBytesPerThread: 1536 * mib, MailboxBytesPerThread: 0,
		SharedFraction: 0, CommFraction: 0, ReadFraction: 0.68,
		LocalitySkew: 2.1, SpatialRun: 2, MeanGap: 4,
		AccessesPerThread: 400_000, InitFraction: 0.5,
		DefaultThreads: 1, PreferredPolicy: numa.FirstTouch1, Seed: 110,
	},
}

// suiteNames pins the nine multi-threaded workloads of the main evaluation,
// in the paper's order. Names answers from this list, not from builtins, so
// the catalog's extra entries (mcf, the workload-spec presets) can never
// change the default experiment suite or invalidate golden results.
var suiteNames = []string{
	"facesim", "streamcluster", "freqmine", "fluidanimate", "canneal",
	"tunkrank", "nutch", "cassandra", "classification",
}

// Names returns the names of the nine multi-threaded workloads of the main
// evaluation, in the paper's order.
func Names() []string {
	out := make([]string, len(suiteNames))
	copy(out, suiteNames)
	return out
}

// AllNames returns the name of every built-in workload — the suite, then
// mcf — in table order. The workload-spec presets are listed by wspec.Names.
func AllNames() []string {
	out := make([]string, len(builtins))
	for i, s := range builtins {
		out[i] = s.Name
	}
	return out
}

// Get returns the built-in workload with the given name.
func Get(name string) (Spec, error) {
	for _, s := range builtins {
		if s.Name == name {
			return s, nil
		}
	}
	known := AllNames()
	sort.Strings(known)
	return Spec{}, fmt.Errorf("workload: unknown workload %q (known: %v)", name, known)
}

// MustGet is Get for names known to exist; it panics otherwise.
func MustGet(name string) Spec {
	s, err := Get(name)
	if err != nil {
		panic(err)
	}
	return s
}
