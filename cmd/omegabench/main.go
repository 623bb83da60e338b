// Command omegabench regenerates every figure/table of the reproduction
// (see DESIGN.md's experiment index) and prints the measurements and
// claim verdicts.
//
// Usage:
//
//	omegabench [-quick] [-seeds N] [-out FILE]
//	omegabench -bench [-benchdir DIR] [-benchdur D]
//	omegabench -load [-benchdir DIR] [-loaddur D]
//	omegabench -benchmd FILE [-benchdir DIR]
//	omegabench -campaign [-campseeds N] [-campseedbase S] [-campmutate M]
//	           [-campexpect E] [-campout FILE] [-campscenarios DIR]
//
// Any mode accepts -cpuprofile FILE and -memprofile FILE, which write
// pprof profiles covering the whole run — the reproducible way to find
// hot-path work (see README "Profiling the hot paths").
//
// With -bench it instead runs the performance benchmarks of the
// instrumentation, query and replication layers and writes
// machine-readable BENCH_<name>.json files (census contention: lock-free
// vs global-mutex census; fleet leader queries: the cached multi-cluster
// fast path; kv throughput: the Omega-driven replicated store on the
// atomic and SAN substrates; kv sustained: a write stream 10x the log's
// slot window, committed through checkpoint + recycle; sharded KV
// scaling: aggregate commit capacity vs shard count, batched vs
// unbatched), so the perf trajectory is recorded run over run.
//
// With -load it runs the latency-under-load benchmark: one declarative
// open-loop workload spec (Poisson arrivals, Zipf keys, mixed SLO
// classes) executed twice against the simulated sharded store under
// virtual time — asserting the two runs are byte-identical — and once
// against a live ShardedKV on the wall clock, writing
// BENCH_latency_under_load.json with per-class p50/p95/p99/p999,
// attainment, goodput and fairness for both modes plus the sim-vs-live
// calibration score (MAPE, Pearson's r).
//
// With -benchmd it regenerates the benchmark section of the given
// markdown file (the README) from the BENCH_*.json files in -benchdir,
// between the benchmark markers, so published numbers never drift from
// recorded ones.
//
// With -campaign it runs the adversarial scenario campaign instead: a
// seed sweep over a grid of fault configurations (crashes, gray
// election registers, brownouts, open-loop load), every run recorded
// and fed through the omegasm/check linearizability/durability checker,
// scored (violations over near-misses over leader churn and commit
// stalls) and summarized worst-first. -campmutate seeds a known bug to
// prove the checker catches it (-campexpect violations gates CI on
// that); -campexpect clean gates nightly sweeps; -campscenarios
// regenerates the minimized regression fixtures under
// testdata/scenarios.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"runtime/pprof"

	"omegasm"
	"omegasm/internal/harness"
)

func main() {
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "smaller horizons and seed counts")
	seeds := flag.Int("seeds", 0, "seeded repetitions per data point (0: default)")
	out := flag.String("out", "", "also write the report to this file")
	bench := flag.Bool("bench", false, "run the perf benchmarks and emit BENCH_*.json instead of the experiments")
	benchdir := flag.String("benchdir", ".", "directory for BENCH_*.json files")
	benchdur := flag.Duration("benchdur", 300*time.Millisecond, "measurement window per benchmark point")
	benchonly := flag.String("benchonly", "", "with -bench: only run benchmarks whose name contains this substring")
	benchgmp := flag.Int("benchgmp", 0, "with -bench: restrict GOMAXPROCS-swept benchmarks to this single value (0: full sweep); pair with -cpuprofile to profile one contention point")
	benchmd := flag.String("benchmd", "", "markdown file whose benchmark section is regenerated from -benchdir's BENCH_*.json files")
	loadBench := flag.Bool("load", false, "run the latency-under-load benchmark (sim + live) and emit BENCH_latency_under_load.json")
	loaddur := flag.Duration("loaddur", 2*time.Second, "arrival window of the -load workload")
	campaign := flag.Bool("campaign", false, "run the adversarial scenario campaign (seed sweep + checker) instead of the experiments")
	campseeds := flag.Int("campseeds", 50, "with -campaign: seeds per grid point")
	campseedbase := flag.Int64("campseedbase", 0, "with -campaign: first seed of the sweep (nightlies rotate this)")
	campout := flag.String("campout", "", "with -campaign: write the JSON report to this file")
	campmutate := flag.String("campmutate", "", "with -campaign: seed a bug (drop-quorum-ack, premature-lease-extend) to prove checker non-vacuity")
	campexpect := flag.String("campexpect", "", "with -campaign: gate the exit status (clean: no violations allowed; violations: at least one required)")
	campscenarios := flag.String("campscenarios", "", "with -campaign: regenerate minimized scenario fixtures into this directory")
	campkeep := flag.Int("campkeep", 10, "with -campaign: worst runs kept in the report")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC() // flush recent frees so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			}
			f.Close()
		}()
	}

	if *benchmd != "" {
		if err := updateBenchMarkdown(*benchmd, *benchdir); err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		fmt.Printf("updated benchmark section of %s\n", *benchmd)
		return 0
	}
	if *campaign {
		return runCampaignCmd(campaignOpts{
			seeds:     *campseeds,
			seedBase:  *campseedbase,
			out:       *campout,
			mutate:    *campmutate,
			expect:    *campexpect,
			scenarios: *campscenarios,
			keep:      *campkeep,
		})
	}
	if *loadBench {
		return runLoad(*benchdir, *loaddur)
	}
	if *bench {
		return runBench(*benchdir, *benchdur, *benchonly, *benchgmp)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	cfg := harness.Config{Quick: *quick, Seeds: *seeds}
	failed := 0
	for _, e := range harness.All() {
		fmt.Fprintf(w, "\n================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "paper artifact: %s\n", e.Paper)
		fmt.Fprintf(w, "================================================================\n")
		outc, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "ERROR: %v\n", err)
			failed++
			continue
		}
		for _, tbl := range outc.Tables {
			fmt.Fprintf(w, "\n%s", tbl.Render())
		}
		if outc.Report != nil && len(outc.Report.Verdicts) > 0 {
			fmt.Fprintf(w, "\nverdicts:\n%s", outc.Report)
			if !outc.Report.AllOK() {
				failed++
			}
		}
		for _, n := range outc.Notes {
			fmt.Fprintf(w, "note: %s\n", n)
		}
	}
	fmt.Fprintf(w, "\n")
	if failed > 0 {
		fmt.Fprintf(w, "omegabench: %d experiment(s) with failures\n", failed)
		return 1
	}
	fmt.Fprintf(w, "omegabench: all experiments passed\n")
	return 0
}

// runBench measures the instrumentation and query layers and writes one
// BENCH_*.json per benchmark. A non-empty only restricts the run to
// benchmarks whose name contains it (regenerate one file, or profile one
// hot path in isolation); a non-zero gmp collapses GOMAXPROCS sweeps to
// that single value so a -cpuprofile captures one contention point.
func runBench(dir string, dur time.Duration, only string, gmp int) int {
	gmpSweep := []int{1, 2, 4}
	if gmp > 0 {
		gmpSweep = []int{gmp}
	}
	benches := []struct {
		name string
		run  func() (harness.BenchReport, error)
	}{
		{"census_contention", func() (harness.BenchReport, error) {
			fmt.Printf("census contention (monitored, %v per point):\n", dur)
			var points []harness.CensusContentionPoint
			for _, procs := range []int{2, 4, 8, 16} {
				pt := harness.BenchCensusContention(procs, dur)
				points = append(points, pt)
				fmt.Printf("  procs=%2d  mutex=%8.2fM ops/s  lockfree=%8.2fM ops/s  speedup=%.2fx\n",
					pt.Procs, pt.MutexOpsPerSec/1e6, pt.LockFreeOpsPerSec/1e6, pt.Speedup)
			}
			return harness.BenchReport{
				Name:   "census_contention",
				Unit:   "instrumented register accesses/sec (all processes)",
				Points: points,
			}, nil
		}},
		{"fleet_leader_queries", func() (harness.BenchReport, error) {
			fmt.Printf("fleet leader queries (%v per point):\n", dur)
			var points []harness.FleetQueryPoint
			for _, clusters := range []int{1, 4, 8} {
				pt, err := benchFleetQueries(clusters, 3, 8, dur)
				if err != nil {
					return harness.BenchReport{}, err
				}
				points = append(points, pt)
				fmt.Printf("  clusters=%2d  %8.2fM queries/s (%d queriers)\n",
					pt.Clusters, pt.QueriesPerSec/1e6, pt.Queriers)
			}
			return harness.BenchReport{
				Name:   "fleet_leader_queries",
				Unit:   "Leader() queries/sec (all queriers)",
				Points: points,
			}, nil
		}},
		{"kv_throughput", func() (harness.BenchReport, error) {
			fmt.Printf("replicated KV throughput (best of %d x %v per point, GOMAXPROCS swept):\n",
				kvThroughputRuns, dur)
			var points []harness.KVThroughputPoint
			for _, p := range []struct {
				n   int
				sub string
			}{{3, "atomic"}, {5, "atomic"}, {3, "san"}} {
				// Interleave the GOMAXPROCS points round-robin rather than
				// running each point's windows as a block: host load drifts
				// over the minute a sweep takes, and back-to-back blocks
				// would hand one point systematically quieter conditions.
				// Round-robin gives every point the same noise distribution,
				// so differences between rows are the setting, not the drift.
				best := make(map[int]harness.KVThroughputPoint, len(gmpSweep))
				for run := 0; run < kvThroughputRuns; run++ {
					for _, gmp := range gmpSweep {
						var pt harness.KVThroughputPoint
						var benchErr error
						harness.WithGoMaxProcs(gmp, func() {
							pt, benchErr = benchKVThroughput(p.n, p.sub, dur)
						})
						if benchErr != nil {
							return harness.BenchReport{}, benchErr
						}
						if pt.CommitsPerSec > best[gmp].CommitsPerSec {
							pt.GoMaxProcs = gmp
							best[gmp] = pt
						}
					}
				}
				for _, gmp := range gmpSweep {
					pt := best[gmp]
					points = append(points, pt)
					fmt.Printf("  n=%d %-6s gomaxprocs=%d  %8.0f commits/s  %10.0f reads/s\n",
						pt.Procs, pt.Substrate, pt.GoMaxProcs, pt.CommitsPerSec, pt.ReadsPerSec)
				}
			}
			return harness.BenchReport{
				Name:   "kv_throughput",
				Unit:   "committed log entries/sec and local reads/sec (64 reads per committed write)",
				Points: points,
			}, nil
		}},
		{"kv_sustained", func() (harness.BenchReport, error) {
			fmt.Printf("sustained KV stream (10x the slot window, checkpoint recycling, %v cap per point):\n", 20*dur)
			var points []harness.KVSustainedPoint
			for _, p := range []struct {
				n   int
				sub string
			}{{3, "atomic"}, {3, "san"}} {
				pt, err := benchKVSustained(p.n, p.sub, 20*dur)
				if err != nil {
					return harness.BenchReport{}, err
				}
				points = append(points, pt)
				fmt.Printf("  n=%d %-6s  %8.0f commits/s over %d/%d commands (%d-slot window, %d checkpoints)\n",
					pt.Procs, pt.Substrate, pt.CommitsPerSec, pt.Committed, pt.TargetCommands, pt.Slots, pt.Checkpoints)
			}
			return harness.BenchReport{
				Name:   "kv_sustained",
				Unit:   "committed writes/sec over a stream 10x the log's slot window (checkpoint + recycle on the write path)",
				Points: points,
			}, nil
		}},
		{"read_path", func() (harness.BenchReport, error) {
			fmt.Printf("read path (lease vs freshest vs quorum, %v per point):\n", dur)
			var points []harness.ReadPathPoint
			for _, mode := range []omegasm.ReadMode{
				omegasm.ReadLease, omegasm.ReadFreshest, omegasm.ReadQuorum,
			} {
				pt, err := benchReadPath(3, mode, dur)
				if err != nil {
					return harness.BenchReport{}, err
				}
				points = append(points, pt)
				fmt.Printf("  n=%d %-8s  %12.0f reads/s  p50=%7.2fus  p99=%7.2fus\n",
					pt.Procs, pt.Mode, pt.ReadsPerSec, pt.P50Usec, pt.P99Usec)
			}
			return harness.BenchReport{
				Name:   "read_path",
				Unit:   "linearizable-path Get/sec by read mode, with latency percentiles (atomic substrate, idle write load)",
				Points: points,
			}, nil
		}},
		{"shardedkv_scaling", func() (harness.BenchReport, error) {
			fmt.Printf("sharded KV scaling (deterministic virtual time, 1 tick = 1us, GOMAXPROCS swept):\n")
			points, err := benchShardedKVScaling([]int{1, 2, 4})
			if err != nil {
				return harness.BenchReport{}, err
			}
			for _, pt := range points {
				fmt.Printf("  shards=%d batch=%2d gomaxprocs=%d  %10.0f commits/s  avg batch=%5.1f  speedup vs 1 shard=%.2fx\n",
					pt.Shards, pt.BatchSize, pt.GoMaxProcs, pt.CommitsPerSec, pt.AvgBatch, pt.SpeedupVsOneShard)
			}
			return harness.BenchReport{
				Name:   "shardedkv_scaling",
				Unit:   "aggregate committed commands/sec (virtual time: every machine owns a processor), batched vs unbatched, atomic substrate",
				Points: points,
			}, nil
		}},
		{"engine_wakeup", func() (harness.BenchReport, error) {
			fmt.Printf("engine wakeup: wake-driven KV commits (%v per point):\n", dur)
			var points []harness.EngineWakeupPoint
			for _, p := range []struct {
				procs    int
				interval time.Duration
			}{{3, 200 * time.Microsecond}, {5, 200 * time.Microsecond}, {3, time.Millisecond}} {
				pt, err := harness.BenchEngineWakeup(p.procs, p.interval, dur)
				if err != nil {
					return harness.BenchReport{}, err
				}
				points = append(points, pt)
				fmt.Printf("  n=%d tick=%4.0fus  wake=%8.0f commits/s\n",
					pt.Procs, pt.IntervalUsec, pt.WakeCommitsPerSec)
			}
			return harness.BenchReport{
				Name:   "engine_wakeup",
				Unit:   "synchronous committed writes/sec, wake-driven engine, pinned leader",
				Points: points,
			}, nil
		}},
	}
	ran := 0
	for _, b := range benches {
		if only != "" && !strings.Contains(b.name, only) {
			continue
		}
		report, err := b.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %s: %v\n", b.name, err)
			return 1
		}
		path, err := harness.WriteBenchJSON(dir, report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "omegabench: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n\n", path)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "omegabench: no benchmark matches -benchonly %q\n", only)
		return 1
	}
	return 0
}

// kvThroughputRuns is how many measurement windows each kv_throughput
// point takes; the best is recorded. A single window is at the mercy of
// whatever else the host runs during it (a window that catches an
// election or a GC cycle under CPU oversubscription can halve) — peak
// steady-state rate is the stable, comparable quantity, and best-of-N
// error is one-sided (only ever below the true ceiling), so more
// windows strictly tighten the estimate.
const kvThroughputRuns = 7

// benchKVThroughput elects a leader, serves the replicated KV store and
// measures commit and local-read throughput over dur. The writer keeps a
// bounded queue of async Sets ahead of the applied index so the log is
// never starved and never floods.
func benchKVThroughput(n int, substrate string, dur time.Duration) (harness.KVThroughputPoint, error) {
	opts := []omegasm.Option{
		omegasm.WithN(n),
		omegasm.WithStepInterval(100 * time.Microsecond),
		// 10ms failure-detection timers, not the 1ms used elsewhere: the
		// GOMAXPROCS sweep oversubscribes the reference container's single
		// core, and a GC wave or an OS reschedule then stalls the engine
		// thread past a 1ms timer unit — the benchmark would measure
		// spurious re-elections instead of the commit path. Commits are
		// wake-driven, so coarser timers change failover latency only.
		omegasm.WithTimerUnit(10 * time.Millisecond),
	}
	if substrate == "san" {
		// An ideal (zero-latency) SAN isolates the quorum-protocol cost;
		// pace a little slower than atomic memory to keep elections calm.
		opts = append(opts,
			omegasm.WithSAN(omegasm.SANConfig{Disks: 3}),
			omegasm.WithStepInterval(500*time.Microsecond),
			omegasm.WithTimerUnit(10*time.Millisecond),
		)
	}
	c, err := omegasm.New(opts...)
	if err != nil {
		return harness.KVThroughputPoint{}, err
	}
	if err := c.Start(); err != nil {
		return harness.KVThroughputPoint{}, err
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		return harness.KVThroughputPoint{}, fmt.Errorf("no agreement on %s substrate", substrate)
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(1<<15), omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		return harness.KVThroughputPoint{}, err
	}
	defer kv.Close()

	applied0 := kv.Applied()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: stay at most 256 commands ahead of the applied index
		defer wg.Done()
		for k := 0; !stop.Load(); {
			if k < kv.Applied()+256 {
				switch err := kv.Set(uint16(k%1024), uint16(k)); err {
				case nil:
					k++
					continue
				case omegasm.ErrLogFull:
					return // capacity exhausted; the sampler ends the window
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	var reads atomic.Int64
	go func() { // reader: local Gets paced at a fixed read:write mix (64
		// reads per applied command). An unbounded spin-reader would
		// measure CPU monopolization instead of store capacity: lock-free
		// Gets scale with GOMAXPROCS until they starve the commit path,
		// so every GOMAXPROCS point would run a different workload. Pure
		// read throughput is the read-path benchmark's job.
		defer wg.Done()
		var count int64
		for k := 0; !stop.Load(); {
			target := int64(kv.Applied()-applied0) * 64
			if count >= target {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			for count < target && !stop.Load() {
				kv.Get(uint16(k % 1024))
				k++
				count++
				if count%256 == 0 {
					runtime.Gosched()
				}
			}
		}
		reads.Store(count)
	}()

	// Sample until dur elapses. The store checkpoints by default, so the
	// log recycles under the writer and the window never has to end early
	// for capacity (the old fixed log had to stop short of exhaustion).
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	commits := kv.Applied() - applied0
	elapsed := time.Since(start).Seconds()
	stop.Store(true)
	wg.Wait()
	return harness.KVThroughputPoint{
		Procs:         n,
		Substrate:     substrate,
		CommitsPerSec: float64(commits) / elapsed,
		ReadsPerSec:   float64(reads.Load()) / elapsed,
	}, nil
}

// readModeName names a ReadMode for benchmark points.
func readModeName(m omegasm.ReadMode) string {
	switch m {
	case omegasm.ReadLease:
		return "lease"
	case omegasm.ReadFreshest:
		return "freshest"
	case omegasm.ReadQuorum:
		return "quorum"
	}
	return "unknown"
}

// benchReadPath measures one read mode of the public KV over an
// otherwise idle default-options store: a single closed-loop reader, so
// the latencies are the read machinery itself — the lease fast path
// (two atomic loads behind a validity check), the uncoordinated
// freshest-replica read, or the full quorum fence (a consensus round
// per read on an idle store). Fast-mode latencies are sampled (every
// 16th read) to bound memory; quorum reads are all recorded.
func benchReadPath(n int, mode omegasm.ReadMode, dur time.Duration) (harness.ReadPathPoint, error) {
	c, err := omegasm.New(
		omegasm.WithN(n),
		omegasm.WithStepInterval(100*time.Microsecond),
		omegasm.WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		return harness.ReadPathPoint{}, err
	}
	if err := c.Start(); err != nil {
		return harness.ReadPathPoint{}, err
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		return harness.ReadPathPoint{}, fmt.Errorf("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		return harness.ReadPathPoint{}, err
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), dur+20*time.Second)
	defer cancel()
	// Seed the key; the committed write also fences the first lease's
	// catch-up barrier. For the lease mode, wait until the fast path is
	// actually up so the point measures lease serving, not the fallback.
	if err := kv.Put(ctx, 7, 42); err != nil {
		return harness.ReadPathPoint{}, err
	}
	if mode == omegasm.ReadLease {
		settle := time.Now().Add(5 * time.Second)
		for {
			if _, ok := kv.LeaseHolder(); ok {
				break
			}
			if time.Now().After(settle) {
				return harness.ReadPathPoint{}, fmt.Errorf("lease never became readable")
			}
			time.Sleep(time.Millisecond)
		}
	}
	lat := make([]time.Duration, 0, 1<<20)
	count := 0
	start := time.Now()
	deadline := start.Add(dur)
	for {
		if count&63 == 0 && !time.Now().Before(deadline) {
			break
		}
		t0 := time.Now()
		if _, _, err := kv.Read(ctx, 7, mode); err != nil {
			return harness.ReadPathPoint{}, err
		}
		d := time.Since(t0)
		count++
		if (mode == omegasm.ReadQuorum || count&15 == 0) && len(lat) < cap(lat) {
			lat = append(lat, d)
		}
	}
	elapsed := time.Since(start).Seconds()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(float64(len(lat)-1) * p)
		return float64(lat[i].Nanoseconds()) / 1e3
	}
	return harness.ReadPathPoint{
		Procs:       n,
		Substrate:   "atomic",
		Mode:        readModeName(mode),
		ReadsPerSec: float64(count) / elapsed,
		P50Usec:     pct(0.50),
		P99Usec:     pct(0.99),
	}, nil
}

// benchKVSustained measures the store's sustained committed-write rate
// over a stream 10x its slot window: a default-options (checkpointing)
// KV over a deliberately small log, so the rate includes the whole
// seal/publish/quorum-ack/recycle cycle many times over. A fixed-capacity
// log would return ErrLogFull a tenth of the way in — this benchmark is
// the recorded proof that write streams are unbounded. cap bounds wall
// time on the slow (SAN) substrate; Committed reports how much of the
// target landed inside it.
func benchKVSustained(n int, substrate string, budget time.Duration) (harness.KVSustainedPoint, error) {
	slots := 512
	opts := []omegasm.Option{
		omegasm.WithN(n),
		omegasm.WithStepInterval(100 * time.Microsecond),
		omegasm.WithTimerUnit(time.Millisecond),
	}
	if substrate == "san" {
		slots = 128 // quorum I/O per commit: keep the 10x stream short
		opts = append(opts,
			omegasm.WithSAN(omegasm.SANConfig{Disks: 3}),
			omegasm.WithStepInterval(500*time.Microsecond),
			omegasm.WithTimerUnit(10*time.Millisecond),
		)
	}
	c, err := omegasm.New(opts...)
	if err != nil {
		return harness.KVSustainedPoint{}, err
	}
	if err := c.Start(); err != nil {
		return harness.KVSustainedPoint{}, err
	}
	defer c.Stop()
	if _, ok := c.WaitForAgreement(20 * time.Second); !ok {
		return harness.KVSustainedPoint{}, fmt.Errorf("no agreement on %s substrate", substrate)
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(slots), omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		return harness.KVSustainedPoint{}, err
	}
	defer kv.Close()

	target := 10 * slots
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: stay at most 256 commands ahead of the applied index
		defer wg.Done()
		for k := 0; k < target && !stop.Load(); {
			if k < kv.Applied()+256 {
				if err := kv.Set(uint16(k%1024), uint16(k)); err == nil {
					k++
					continue
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	start := time.Now()
	deadline := start.Add(budget)
	for kv.Applied() < target && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	commits := kv.Applied()
	elapsed := time.Since(start).Seconds()
	stop.Store(true)
	wg.Wait()
	if commits < target {
		fmt.Printf("  (n=%d %s: wall-time cap hit at %d of %d commands)\n", n, substrate, commits, target)
	}
	return harness.KVSustainedPoint{
		Procs:           n,
		Substrate:       substrate,
		Slots:           slots,
		CheckpointEvery: kv.CheckpointEvery(),
		TargetCommands:  target,
		Committed:       commits,
		Checkpoints:     kv.Checkpoints(),
		CommitsPerSec:   float64(commits) / elapsed,
	}, nil
}

// benchShardedKVScaling measures aggregate commit capacity of the sharded
// store at 1..8 shards, batched vs unbatched, under the deterministic
// virtual-time engine: each shard's machines run a closed-loop saturation
// workload (SimShardedKV with SaturateWindow), every machine owns a
// virtual processor, and one virtual tick is defined as 1us. The
// virtual-time framing is deliberate: shard pipelines are independent by
// construction, and this measures that parallel capacity exactly and
// reproducibly even on a single-core benchmark host, where a wall-clock
// run would only measure the host's core count. Live-host numbers for
// the same stack are in BenchmarkShardedKVThroughput (go test -bench).
// The grid is repeated at each GOMAXPROCS in gmps: virtual-time numbers
// must come out identical at every setting — the recorded proof that the
// measurement is host-independent (the live KV throughput rows, by
// contrast, scale with GOMAXPROCS).
func benchShardedKVScaling(gmps []int) ([]harness.ShardedKVScalingPoint, error) {
	const (
		horizonTicks = 30_000 // 30ms of virtual time
		procs        = 3
		window       = 256
	)
	virtualSec := float64(horizonTicks) * 1e-6
	var points []harness.ShardedKVScalingPoint
	for _, gmp := range gmps {
		base := map[int]float64{} // batch -> single-shard commits/s
		var gmpErr error
		harness.WithGoMaxProcs(gmp, func() {
			for _, batch := range []int{1, 32} {
				// Size each log so no shard can fill it within the horizon: a
				// capacity-capped run would fake perfectly linear scaling.
				slots := 4096
				if batch == 1 {
					slots = 8192
				}
				for _, shards := range []int{1, 2, 4, 8} {
					res, err := omegasm.SimShardedKV(omegasm.SimShardedKVConfig{
						Shards:  shards,
						N:       procs,
						Seed:    1,
						Horizon: horizonTicks,
						Slots:   slots,
						// Fixed-capacity logs keep this a pure batching/sharding
						// measurement (and keep the capacity warning meaningful);
						// the recycling overhead is measured by the sustained
						// benchmark instead.
						CheckpointEvery: -1,
						BatchSize:       batch,
						SaturateWindow:  window,
					})
					if err != nil {
						gmpErr = err
						return
					}
					for sh, sr := range res.Shards {
						if sr.SlotsUsed >= slots {
							fmt.Printf("  (warning: shards=%d batch=%d: shard %d filled its %d-slot log; rate is capacity-capped)\n",
								shards, batch, sh, slots)
						}
					}
					pt := harness.ShardedKVScalingPoint{
						Shards:            shards,
						ProcsPerShard:     procs,
						BatchSize:         batch,
						Mode:              "sim-virtual-time",
						Substrate:         "atomic",
						GoMaxProcs:        gmp,
						CommittedCommands: res.TotalCommitted,
						SlotsUsed:         res.TotalSlots,
						CommitsPerSec:     float64(res.TotalCommitted) / virtualSec,
					}
					if res.TotalSlots > 0 {
						pt.AvgBatch = float64(res.TotalCommitted) / float64(res.TotalSlots)
					}
					if shards == 1 {
						base[batch] = pt.CommitsPerSec
					}
					if base[batch] > 0 {
						pt.SpeedupVsOneShard = pt.CommitsPerSec / base[batch]
					}
					points = append(points, pt)
				}
			}
		})
		if gmpErr != nil {
			return nil, gmpErr
		}
	}
	return points, nil
}

// benchFleetQueries starts a fleet and hammers the cached Leader fast path
// from queriers goroutines for dur.
func benchFleetQueries(clusters, n, queriers int, dur time.Duration) (harness.FleetQueryPoint, error) {
	f, err := omegasm.NewFleet(
		omegasm.WithClusters(clusters),
		omegasm.WithN(n),
		omegasm.WithStepInterval(100*time.Microsecond),
		omegasm.WithTimerUnit(time.Millisecond),
	)
	if err != nil {
		return harness.FleetQueryPoint{}, err
	}
	if err := f.Start(); err != nil {
		return harness.FleetQueryPoint{}, err
	}
	defer f.Stop()
	if _, ok := f.WaitForAgreement(20 * time.Second); !ok {
		return harness.FleetQueryPoint{}, fmt.Errorf("fleet of %d clusters did not agree", clusters)
	}

	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var count int64
			for i := 0; !stop.Load(); i++ {
				f.Leader((q + i) % clusters)
				count++
			}
			total.Add(count)
		}(q)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	return harness.FleetQueryPoint{
		Clusters:        clusters,
		ProcsPerCluster: n,
		Queriers:        queriers,
		QueriesPerSec:   float64(total.Load()) / elapsed,
	}, nil
}
