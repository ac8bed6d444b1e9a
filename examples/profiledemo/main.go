// Command profiledemo walks the optimizer's self-profiler end to end: it
// optimizes a star join twice — once serially, once rank-parallel — with
// the profiler attached, and prints what the instrumentation is for.
//
//	go run ./examples/profiledemo [-k 6] [-parallelism 4] [-top 8]
//
// The serial run shows where one optimization's time and allocations go:
// per phase (prepare, access, the join ranks, root, finalize — their
// self-times partition the wall clock), per STAR by self-time (JMeth is
// where join work concentrates; its TOTAL includes the Glue subtree, its
// SELF does not), and per activity (guard evaluation vs cost pricing vs
// plan-table offers — overlapping meters, not a partition).
//
// The parallel run adds the rank telemetry that makes a speedup — or a
// slowdown — explain itself: each join rank reports its task count, the
// task-collection and barrier-absorb windows that stay serial, the per-rank
// worker busy times, and the derived idle share and imbalance ratio
// (slowest worker over the mean; 1.0 is perfectly level). Small ranks with
// few tasks per worker show high imbalance: that, plus the absorb share, is
// the cost of determinism. See docs/PERFORMANCE.md § Profiling.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"stars"
	"stars/internal/workload"
)

func main() {
	k := flag.Int("k", 6, "star-join width (fact table + k dimensions)")
	par := flag.Int("parallelism", runtime.GOMAXPROCS(0), "worker fan-out of the parallel run")
	top := flag.Int("top", 8, "rows per rule/span table")
	flag.Parse()

	for _, run := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel (%d workers)", *par), *par},
	} {
		sink := stars.NewMetricsSink()
		stars.EnableProfiling(sink, stars.ProfileOptions{})

		cat := workload.StarCatalog(*k, 100000, 500)
		a0, t0 := stars.HeapAllocs(), time.Now()
		res, err := stars.Optimize(cat, workload.StarQuery(*k),
			stars.Options{Obs: sink, Parallelism: run.parallelism})
		if err != nil {
			fatal(err)
		}

		p := stars.ProfileOf(sink)
		p.ElapsedNS = time.Since(t0).Nanoseconds()
		p.Allocs = stars.HeapAllocs() - a0

		fmt.Printf("═══ star%d, %s — best plan %s, cost %.0f ═══\n\n",
			*k, run.name, res.Best.Fingerprint(), res.Best.Props.Cost.Total)
		fmt.Print(stars.FormatProfile(p, *top))
		fmt.Println()
	}
	fmt.Println("Both runs produced identical phase/rule tallies — the determinism")
	fmt.Println("contract the profiler is pinned to (only durations may differ).")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "profiledemo:", err)
	os.Exit(1)
}
