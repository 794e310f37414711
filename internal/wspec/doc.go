// Package wspec is the workload-spec DSL: a small, versioned JSON format
// that composes the synthetic workload generators of internal/workload —
// and external traces — into new, ready-to-run workloads without a code
// change. It also owns the workload catalog: the built-in workloads plus
// the embedded presets, resolved by name through Lookup and listed by
// Names.
//
// # Format reference (version 1)
//
// A document is a single JSON object; unknown fields are rejected. Exactly
// one of "base", "tenants" or "trace" selects the mode:
//
//	{
//	  "version": 1,                  // required, must be 1
//	  "name": "my-workload",         // required, the workload's name
//
//	  "base": "facesim",             // a catalog workload or a simple spec
//	                                 // compiled in the same batch
//	  "seed": 42,                    // overrides the base seed (0 = keep)
//	  "threads": 32,                 // overrides default threads
//	  "accesses_per_thread": 200000, // overrides stream length
//
//	  "overrides": {                 // re-weights the base's mix
//	    "shared_fraction": 0.9, "comm_fraction": 0.05,
//	    "read_fraction": 0.8, "locality_skew": 2.0,
//	    "spatial_run": 4, "mean_gap": 6
//	  },
//	  "arrival": {                   // inter-access gap model
//	    "process": "weibull",        // constant | poisson | gamma | weibull
//	    "mean": 6, "shape": 0.8      // shape for gamma/weibull only
//	  },
//	  "sharing": {                   // shared-region popularity skew
//	    "dist": "zipf",              // zipf | pareto
//	    "theta": 1.1
//	  },
//
//	  "phases": [                    // sequential segments of the stream
//	    {"name": "load", "fraction": 0.25, "shared_fraction": 0.3},
//	    {"name": "steady", "fraction": 0.75, "locality_skew": 3.0}
//	  ],
//
//	  "tenants": [                   // weighted interleaved mix
//	    {"name": "frontend", "base": "nutch", "weight": 3,
//	     "arrival": {"process": "poisson", "mean": 9}},
//	    {"name": "analytics", "base": "tunkrank"}
//	  ],
//
//	  "trace": "path/to/trace.c3dt"  // replay an external trace file as-is
//	}
//
// Semantics:
//
//   - A simple document (base + scalar knobs, no phases/tenants/trace)
//     flattens to a plain generator spec. A spec that mirrors a built-in
//     workload therefore produces byte-identical traces, and simple specs
//     can serve as bases for other specs (cycles are rejected).
//   - Phases split each thread's stream into sequential segments sized by
//     the normalised fractions. Each phase re-weights the mix (overrides
//     fields inline next to "fraction"); region sizes are not overridable,
//     so every phase shares the base's address-space layout.
//   - Tenants each resolve their own base, get a disjoint page-aligned
//     slice of the address space, and are interleaved by per-tenant virtual
//     arrival clocks: intervals are drawn from the tenant's arrival process
//     by inverse-transform sampling on a seeded RNG, divided by the
//     tenant's weight, and the earliest clock (ties to the lowest tenant
//     index) emits next. The merged stream is a pure function of
//     (document, seed, options) at any parallelism.
//   - A trace document replays an external binary trace file (v2 or v1)
//     through trace.OpenSource; the file handle stays open for the life of
//     the compiled spec. It takes no other knobs. Text-format traces must be
//     converted first (`c3dtrace -ingest app.trace -out app.c3dt`).
//
// Determinism is the package's contract: compiled sources derive every
// random stream from (spec seed, job seed-offset, phase/tenant salt,
// thread), so identical (spec, seed) produce bit-identical streams however
// the sections are consumed and at any worker parallelism.
//
// # Ingestion
//
// OpenText streams the external text trace format (one record per line:
// `<init|thread> <r|w> <addr> [gap]`, '#' comments, optional `# name:`
// directive) as a trace.Source without materialising it; trace.EncodeSource
// writes that source in the v2 chunked format; WriteText exports any source
// back to text, making the round trip lossless.
//
// # Presets
//
// Presets are the spec documents in the presets directory, embedded in this
// package and compiled once, in file-name order, into the catalog. That
// makes them plain named workloads everywhere — `c3dsim -workload
// multitenant-mix` works as well as `-spec preset:multitenant-mix`. To add
// one:
//
//  1. Drop a new .json document into internal/wspec/presets/. Documents in
//     the directory compile as one batch against the built-in workloads, so
//     a preset may use a built-in or another simple preset as its base.
//  2. Pick a name that collides with nothing in `c3dtrace -list`.
//  3. `go test ./internal/wspec/...` — the preset tests compile every
//     embedded document and re-check determinism across parallelism.
//
// The default evaluation suite (workload.Names) is pinned to the nine paper
// workloads, so presets never change existing experiment or golden results;
// experiments pick up a preset only when asked (`-workloads`, `-spec`).
package wspec
