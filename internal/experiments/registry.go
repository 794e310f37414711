package experiments

import (
	"context"
	"fmt"
	"sort"

	"c3d/internal/stats"
)

// Result is what every experiment produces: a structured value that can
// render itself as the table/series the paper reports.
type Result interface {
	Table() *stats.Table
}

// Entry describes one runnable experiment.
type Entry struct {
	// ID is the identifier used by cmd/c3dexp (table1, fig2, ..., verify).
	ID string
	// Paper names the table or figure being reproduced.
	Paper string
	// Description is a one-line summary.
	Description string
	// Run executes the experiment.
	Run func(context.Context, Config) (Result, error)
}

var registry = []Entry{
	{
		ID: "table1", Paper: "Table I",
		Description: "fraction of memory accesses satisfied by remote memory (4-socket baseline)",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := TableI(ctx, c); return r, err },
	},
	{
		ID: "fig2", Paper: "Fig. 2",
		Description: "NUMA bottleneck analysis: idealised latency/bandwidth configurations",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig2(ctx, c); return r, err },
	},
	{
		ID: "fig3", Paper: "Fig. 3",
		Description: "memory accesses versus LLC capacity, normalised to a 16MB LLC",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig3(ctx, c); return r, err },
	},
	{
		ID: "fig6", Paper: "Fig. 6",
		Description: "4-socket performance comparison of the coherence designs",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig6(ctx, c); return r, err },
	},
	{
		ID: "fig7", Paper: "Fig. 7",
		Description: "2-socket performance comparison of the coherence designs",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig7(ctx, c); return r, err },
	},
	{
		ID: "fig8", Paper: "Fig. 8",
		Description: "C3D remote memory traffic normalised to the baseline",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig8(ctx, c); return r, err },
	},
	{
		ID: "fig9", Paper: "Fig. 9",
		Description: "inter-socket traffic of each design normalised to the baseline",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig9(ctx, c); return r, err },
	},
	{
		ID: "fig10", Paper: "Fig. 10",
		Description: "sensitivity to DRAM cache latency (30/40/50ns)",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig10(ctx, c); return r, err },
	},
	{
		ID: "fig11", Paper: "Fig. 11",
		Description: "sensitivity to inter-socket latency (5/10/20/30ns)",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Fig11(ctx, c); return r, err },
	},
	{
		ID: "sec6c", Paper: "§VI-C",
		Description: "broadcast reduction from the TLB private-page filter (suite + mcf)",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Sec6C(ctx, c); return r, err },
	},
	{
		ID: "verify", Paper: "§IV-C",
		Description: "model-check the C3D protocol (SWMR, data-value, deadlock freedom)",
		Run: func(ctx context.Context, c Config) (Result, error) {
			vc := VerifyConfig{Parallelism: c.Parallelism, Progress: c.Progress}
			if c.short() {
				vc.MaxStates = 200_000
			}
			return Verify(ctx, vc)
		},
	},
	{
		ID: "shared", Paper: "§II-C",
		Description: "private versus shared DRAM cache organisation",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := PrivateVsShared(ctx, c); return r, err },
	},
	{
		ID: "ablation", Paper: "§IV (ext.)",
		Description: "isolate the clean property, the non-inclusive directory and the miss predictor",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Ablation(ctx, c); return r, err },
	},
	{
		ID: "scaling", Paper: "§V (ext.)",
		Description: "socket-scaling study: speedup and off-socket traffic vs socket count x topology x design",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := Scaling(ctx, c); return r, err },
	},
	{
		ID: "scaling-sampled", Paper: "§V (ext.)",
		Description: "sampled socket-scaling study: the same sweep via SMARTS-style sampling, every metric with 95% error bars",
		Run:         func(ctx context.Context, c Config) (Result, error) { r, err := SampledScaling(ctx, c); return r, err },
	},
}

// IDs returns every experiment id in presentation order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Lookup returns the entry with the given id.
func Lookup(id string) (Entry, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	known := IDs()
	sort.Strings(known)
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
}

// All returns every entry in presentation order.
func All() []Entry { return append([]Entry(nil), registry...) }
