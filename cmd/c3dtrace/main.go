// Command c3dtrace generates, inspects and converts the synthetic workload
// traces that drive the simulator. Everything flows through the SDK's
// streaming TraceSource interface, so generation, summarising and conversion
// run at bounded memory however long the trace is. -out always writes the
// chunked v2 format; -in reads v2 and older flat v1 files alike.
//
// Usage:
//
//	c3dtrace -list                                   # show the workload catalog and spec presets
//	c3dtrace -workload canneal -summary              # generate and summarise
//	c3dtrace -workload canneal -out canneal.c3dt     # write the binary trace (chunked v2)
//	c3dtrace -in canneal.c3dt -summary               # summarise an existing file (v1 or v2)
//	c3dtrace -workload nutch -dump 20                # print the first records
//	c3dtrace -spec preset:bursty-tail -summary       # compile and run a workload spec
//	c3dtrace -ingest app.trace -out app.c3dt         # ingest an external text trace
//	c3dtrace -in app.c3dt -text-out app.trace        # export back to text
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"c3d/pkg/c3d"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list registered workloads and exit")
		workloadName = flag.String("workload", "", "workload to generate")
		specArg      = flag.String("spec", "", "workload-spec document to compile and generate: a file path or preset:<name>")
		inPath       = flag.String("in", "", "read an existing binary trace instead of generating")
		ingestPath   = flag.String("ingest", "", "read an external text-format memory trace instead of generating (see the internal/wspec format reference)")
		outPath      = flag.String("out", "", "write the trace in the chunked v2 binary format")
		textOut      = flag.String("text-out", "", "write the trace in the text format (lossless round trip with -ingest)")
		threads      = flag.Int("threads", 0, "threads (default: the workload's native count)")
		accesses     = flag.Int("accesses", 0, "accesses per thread (default: the workload's native count)")
		scale        = flag.Int("scale", 0, "footprint scale factor (default 64)")
		summary      = flag.Bool("summary", true, "print a summary of the trace (suppressed when -out is given unless set explicitly: the stats pass walks the whole stream a second time)")
		dump         = flag.Int("dump", 0, "print the first N records of thread 0")
		version      = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("c3dtrace", c3d.Version())
		return
	}
	// setFlags answers "was this flag given explicitly" for the
	// conflicting-flag checks below.
	setFlags := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	if *list {
		fmt.Println("registered workloads:")
		for _, w := range c3d.Workloads() {
			fmt.Printf("  %-15s %-16s shared %5d MiB, %2d threads, read %.0f%%, comm %.0f%%\n",
				w.Name, w.Class, w.SharedBytes/(1<<20), w.DefaultThreads,
				w.ReadFraction*100, w.CommFraction*100)
		}
		if presets := c3d.WorkloadSpecPresets(); len(presets) > 0 {
			fmt.Println("\nworkload-spec presets (run with -spec preset:<name>):")
			for _, name := range presets {
				fmt.Printf("  %s\n", name)
			}
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	modes := 0
	for _, on := range []bool{*inPath != "", *ingestPath != "", *specArg != "", *workloadName != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "c3dtrace: -workload, -spec, -in and -ingest are mutually exclusive trace sources")
		os.Exit(2)
	}

	var src c3d.TraceSource
	switch {
	case *inPath != "", *ingestPath != "":
		// Replaying a file: the generation flags would be silently ignored,
		// so combining them is an error rather than a surprise.
		var conflicting []string
		for _, name := range []string{"threads", "accesses", "scale"} {
			if setFlags[name] {
				conflicting = append(conflicting, "-"+name)
			}
		}
		if len(conflicting) > 0 {
			fmt.Fprintf(os.Stderr, "c3dtrace: -in/-ingest replay an existing trace; the generation flags %v have no effect on it (drop them, or generate instead)\n", conflicting)
			os.Exit(2)
		}
		if *inPath != "" {
			tf, err := c3d.OpenTrace(*inPath)
			exitOn(err)
			defer tf.Close()
			src = tf
		} else {
			ts, err := c3d.OpenTextTrace(*ingestPath)
			exitOn(err)
			src = ts
		}
	case *specArg != "", *workloadName != "":
		params := c3d.Params{Threads: *threads, Accesses: *accesses, Scale: *scale}
		if *specArg != "" {
			doc, err := c3d.ReadWorkloadSpec(*specArg)
			exitOn(err)
			params.Spec = doc
		}
		sess, err := params.Session()
		exitOn(err)
		src, err = sess.TraceSource(*workloadName)
		exitOn(err)
	default:
		fmt.Fprintln(os.Stderr, "c3dtrace: provide -workload, -spec, -in or -ingest (or -list)")
		os.Exit(2)
	}

	// Summarising costs a full pass over the streams. When the run's point is
	// -out, don't silently double the generation work; an explicit -summary
	// opts back in.
	doSummary := *summary && ((*outPath == "" && *textOut == "") || setFlags["summary"])
	if doSummary {
		s, err := c3d.ComputeTraceStats(ctx, src)
		exitOn(err)
		fmt.Printf("trace %q\n", s.Name)
		fmt.Printf("  threads            %d\n", s.Threads)
		fmt.Printf("  init accesses      %d\n", s.InitAccesses)
		fmt.Printf("  parallel accesses  %d\n", s.Accesses)
		fmt.Printf("  read fraction      %.1f%%\n", s.ReadFraction()*100)
		fmt.Printf("  footprint          %.1f MiB (%d pages)\n", float64(s.FootprintBytes())/(1<<20), s.FootprintPages)
		fmt.Printf("  instructions (est) %d\n", s.InstructionEstimate)
	}
	if *dump > 0 && src.Threads() > 0 {
		rr := src.OpenThread(0)
		recs := make([]c3d.TraceRecord, 0, *dump)
		for len(recs) < *dump {
			rec, ok := rr.Next()
			if !ok {
				break
			}
			recs = append(recs, rec)
		}
		exitOn(rr.Err())
		fmt.Printf("first %d records of thread 0:\n", len(recs))
		for _, r := range recs {
			fmt.Printf("  %s %v gap=%d\n", r.Kind, r.Addr, r.Gap)
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		exitOn(err)
		exitOn(c3d.TraceEncode(ctx, f, src))
		exitOn(f.Close())
		fmt.Printf("wrote %s\n", *outPath)
	}
	if *textOut != "" {
		f, err := os.Create(*textOut)
		exitOn(err)
		exitOn(c3d.WriteTextTrace(ctx, f, src))
		exitOn(f.Close())
		fmt.Printf("wrote %s\n", *textOut)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "c3dtrace:", err)
		os.Exit(1)
	}
}
