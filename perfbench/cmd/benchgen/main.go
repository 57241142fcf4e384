// Command benchgen is the benchmark's load generator and the one command
// behind perfbench/run.py. For one workload and seed it starts benchserver
// processes, feeds them over the wire API (closed loop for capacity, open
// loop on the workload's schedule for latency and CPU), checks the fire
// stream and the store against an in-process engine, prints every metric
// with its unit and, last, one JSON result line. With -trace 1 it also
// replays the input in process layer by layer and reports the per-layer
// ledger instead of the end-to-end metrics.
//
// Exit status: 0 on a correct, valid run; 1 when the outputs differ from
// the reference (the JSON line still says so); 2 when the generator ran
// too late for the run to count, or the run could not be made.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"rcep/perfbench/harness"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (chain-store, chain-detect, track-query)")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 5, "open-loop length in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
		server   = flag.String("server", "", "path of the benchserver binary (required)")
		out      = flag.String("out", ".bench_build/perfbench", "directory for spans and detection stamps")
	)
	flag.Parse()
	if *workload == "" || *server == "" || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The generator is one process with at most one thread per CPU.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	r, err := harness.Run(harness.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		ServerBin: *server, OutDir: *out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	r.Print(os.Stdout)
	if !r.Valid {
		os.Exit(2)
	}
	line, err := r.JSON(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}
