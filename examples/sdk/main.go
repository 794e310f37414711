// SDK tour: build a Session from Params, run one simulation, one paper
// experiment and the protocol verification — all through pkg/c3d, the same
// cancellable code path the CLIs and the c3dd daemon use.
//
//	go run ./examples/sdk
package main

import (
	"context"
	"fmt"
	"log"

	"c3d/pkg/c3d"
)

func main() {
	params := c3d.Params{
		Sockets:  4,
		Design:   "c3d",
		Threads:  8,
		Scale:    512,
		Accesses: 10_000,
	}
	sess, err := params.Session()
	if err != nil {
		log.Fatal(err)
	}
	sess = sess.WithProgress(func(e c3d.Event) { fmt.Println(e) })
	ctx := context.Background()

	// One simulation; the access streams are generated as they run.
	res, err := sess.Simulate(ctx, "streamcluster")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IPC %.3f, remote memory %.1f%%\n",
		res.IPC(), res.Counters.RemoteMemFraction()*100)

	// A paper experiment; quick, restricted, deterministic. Params is a
	// plain value, so a variant is a copy with fields changed.
	quickParams := params
	quickParams.Quick = true
	quickParams.Workloads = []string{"streamcluster"}
	quick, err := quickParams.Session()
	if err != nil {
		log.Fatal(err)
	}
	exp, err := quick.WithProgress(func(e c3d.Event) { fmt.Println(e) }).Experiment(ctx, "table1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(exp.Table.String())

	// Protocol verification (§IV-C).
	ver, err := sess.Verify(ctx, c3d.VerifyRequest{Sockets: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", ver.Passed())
}
