package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Perf measurement for the instrumentation layer itself (as opposed to the
// paper experiments): BenchCensusContention quantifies what the lock-free
// census buys over the retired global-mutex design under the monitored
// multi-process workload the motivation describes — N processes of a live
// cluster each scanning registers every step while a Stats poller
// snapshots concurrently. `omegabench -bench` runs these and emits the
// machine-readable BENCH_*.json files that record the perf trajectory.

// CensusContentionPoint is one data point of the census contention
// benchmark: the same monitored workload run against the mutex census and
// the lock-free census.
type CensusContentionPoint struct {
	// Procs is the number of concurrently accessing processes.
	Procs int `json:"procs"`
	// Registers is how many registers the workload touches (the Algorithm
	// 1 shape for Procs processes: SUSPICIONS + PROGRESS + STOP).
	Registers int `json:"registers"`
	// MutexOpsPerSec and LockFreeOpsPerSec are instrumented register
	// accesses per second, summed over all processes.
	MutexOpsPerSec    float64 `json:"mutex_ops_per_sec"`
	LockFreeOpsPerSec float64 `json:"lockfree_ops_per_sec"`
	// Speedup is LockFreeOpsPerSec / MutexOpsPerSec.
	Speedup float64 `json:"speedup"`
}

// FleetQueryPoint is one data point of the fleet leader-query benchmark.
type FleetQueryPoint struct {
	Clusters        int     `json:"clusters"`
	ProcsPerCluster int     `json:"procs_per_cluster"`
	Queriers        int     `json:"queriers"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
}

// KVThroughputPoint is one data point of the replicated key-value store
// throughput benchmark: async writes submitted to the Omega-elected
// leader, committed through the Disk-Paxos log, applied on every replica.
type KVThroughputPoint struct {
	Procs     int    `json:"procs"`
	Substrate string `json:"substrate"`
	// GoMaxProcs is the GOMAXPROCS the point ran under (the benchmark
	// sweeps it, so the table shows how the live stack scales with host
	// parallelism).
	GoMaxProcs int `json:"gomaxprocs"`
	// CommitsPerSec is committed-and-applied log entries per second at the
	// reading replica; ReadsPerSec is local Get throughput measured
	// concurrently.
	CommitsPerSec float64 `json:"commits_per_sec"`
	ReadsPerSec   float64 `json:"reads_per_sec"`
}

// ReadPathPoint is one data point of the read-path benchmark: Get
// latency and throughput of the public KV's read modes — the lease fast
// path against the freshest-replica local read and the full quorum
// fence — over an otherwise idle store, so the numbers isolate the read
// machinery itself.
type ReadPathPoint struct {
	Procs     int    `json:"procs"`
	Substrate string `json:"substrate"`
	// Mode is the read mode ("lease", "freshest", "quorum").
	Mode string `json:"mode"`
	// ReadsPerSec is completed reads per second in that mode; P50Usec and
	// P99Usec are per-read latency percentiles in microseconds.
	ReadsPerSec float64 `json:"reads_per_sec"`
	P50Usec     float64 `json:"p50_usec"`
	P99Usec     float64 `json:"p99_usec"`
}

// EngineWakeupPoint is one data point of the engine wakeup benchmark:
// synchronous replicated writes over a pinned-leader consensus stack
// under the wake-driven engine (the writer notifies the leader machine,
// bursts drain back to back, commits wake the writer).
type EngineWakeupPoint struct {
	Procs int `json:"procs"`
	// IntervalUsec is the engine's fallback poll interval.
	IntervalUsec float64 `json:"interval_usec"`
	// WakeCommitsPerSec is synchronous committed writes per second.
	WakeCommitsPerSec float64 `json:"wake_commits_per_sec"`
}

// ShardedKVScalingPoint is one data point of the sharded-store scaling
// benchmark: S independent consensus-backed shards under a closed-loop
// saturation workload, batched vs unbatched proposals. The measurement
// runs under the deterministic virtual-time engine (mode
// "sim-virtual-time", one virtual tick = 1us), where every machine owns
// a virtual processor — so the numbers quantify the architecture's
// parallel capacity exactly and reproducibly, independent of how many
// host cores the benchmark machine happens to have. Live-host numbers
// for the same stack are in BenchmarkShardedKVThroughput.
type ShardedKVScalingPoint struct {
	Shards        int    `json:"shards"`
	ProcsPerShard int    `json:"procs_per_shard"`
	BatchSize     int    `json:"batch_size"`
	Mode          string `json:"mode"`
	Substrate     string `json:"substrate"`
	// GoMaxProcs is the GOMAXPROCS the point ran under. The benchmark
	// sweeps it to record that virtual-time numbers are host-independent:
	// unlike the live KV throughput rows, these rows are identical at
	// every GOMAXPROCS.
	GoMaxProcs int `json:"gomaxprocs"`
	// CommittedCommands is the aggregate committed-command count over the
	// horizon; SlotsUsed the consensus slots they consumed; AvgBatch
	// their ratio (the measured batching factor).
	CommittedCommands int     `json:"committed_commands"`
	SlotsUsed         int     `json:"slots_used"`
	AvgBatch          float64 `json:"avg_batch"`
	// CommitsPerSec is CommittedCommands per virtual second.
	CommitsPerSec float64 `json:"commits_per_sec"`
	// SpeedupVsOneShard is this point's CommitsPerSec over the
	// same-batch-size single-shard point's.
	SpeedupVsOneShard float64 `json:"speedup_vs_one_shard"`
}

// KVSustainedPoint is one data point of the sustained-stream benchmark:
// a default-options (checkpointing) store over a deliberately small slot
// window serving a write stream many times its slot capacity, so the
// measured rate includes the full seal/publish/ack/recycle cycle. A
// fixed-capacity log would return ErrLogFull a tenth of the way in.
type KVSustainedPoint struct {
	Procs     int    `json:"procs"`
	Substrate string `json:"substrate"`
	// Slots is the log window; CheckpointEvery the sealing cadence.
	Slots           int `json:"slots"`
	CheckpointEvery int `json:"checkpoint_every"`
	// TargetCommands is the stream length asked for (10x the window);
	// Committed how many actually landed inside the measurement cap;
	// Checkpoints how many seals the stream crossed.
	TargetCommands int `json:"target_commands"`
	Committed      int `json:"committed"`
	Checkpoints    int `json:"checkpoints"`
	// CommitsPerSec is the sustained committed-write rate across the
	// whole stream, recycling included.
	CommitsPerSec float64 `json:"commits_per_sec"`
}

// LoadClassPoint is one per-(runner mode, SLO class) row of the
// latency-under-load benchmark: the same open-loop workload spec
// executed against the simulated store under virtual time and the live
// store on the wall clock, reported per SLO class.
type LoadClassPoint struct {
	// Mode names the runner ("sim" or "live"); Class the SLO class.
	Mode  string `json:"mode"`
	Class string `json:"class"`
	// SLOMs is the class's latency target in milliseconds.
	SLOMs float64 `json:"slo_ms"`
	// Requests and Completed count the class's scheduled and completed
	// requests; Attainment is the within-SLO fraction of scheduled ones.
	Requests   int     `json:"requests"`
	Completed  int     `json:"completed"`
	Attainment float64 `json:"attainment"`
	// GoodputPerSec is within-SLO completions per second.
	GoodputPerSec float64 `json:"goodput_per_sec"`
	// P50Ms through P999Ms are completed-request latency percentiles in
	// milliseconds, measured from each request's scheduled arrival
	// (coordinated-omission-free).
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// LoadModePoint is one per-runner rollup row of the latency-under-load
// benchmark.
type LoadModePoint struct {
	// Mode names the runner ("sim" or "live"); Class marks the row as a
	// rollup.
	Mode  string `json:"mode"`
	Class string `json:"class"`
	// Requests and Completed count all classes together.
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	// ThroughputPerSec counts completions per second, GoodputPerSec only
	// within-SLO ones.
	ThroughputPerSec float64 `json:"throughput_per_sec"`
	GoodputPerSec    float64 `json:"goodput_per_sec"`
	// JainFairness is Jain's index over the classes' weight-normalized
	// goodput.
	JainFairness float64 `json:"jain_fairness"`
}

// LoadCalibrationPoint scores the sim runner's predictions against the
// live runner's measurements for the same spec.
type LoadCalibrationPoint struct {
	// Mode marks the row ("sim-vs-live").
	Mode string `json:"mode"`
	// MAPEPct is the mean absolute percentage error over the paired
	// per-class p50/p95/p99/p999 values; PearsonR their correlation;
	// Pairs how many pairs were compared.
	MAPEPct  float64 `json:"mape_pct"`
	PearsonR float64 `json:"pearson_r"`
	Pairs    int     `json:"pairs"`
}

// BenchReport is the envelope of a BENCH_*.json file. There is
// deliberately no report-level gomaxprocs field: several benchmarks
// sweep GOMAXPROCS per point, so a header value would record whatever
// the process happened to run under at write time and contradict the
// points — exactly the stale "gomaxprocs": 1 the old header produced.
// Points that depend on it carry their own.
type BenchReport struct {
	// Name identifies the benchmark ("census_contention", ...).
	Name string `json:"name"`
	// Unit describes what the points' throughput numbers count.
	Unit      string `json:"unit"`
	NumCPU    int    `json:"num_cpu"`
	Timestamp string `json:"timestamp"`
	// Points holds CensusContentionPoint or FleetQueryPoint values.
	Points any `json:"points"`
}

// WriteBenchJSON writes report to dir/BENCH_<name>.json and returns the
// path.
func WriteBenchJSON(dir string, report BenchReport) (string, error) {
	report.NumCPU = runtime.NumCPU()
	if report.Timestamp == "" {
		report.Timestamp = time.Now().UTC().Format(time.RFC3339)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+report.Name+".json")
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// CensusWorkload is the contention workload shape over one census
// implementation, shared by `omegabench -bench` and the Go benchmarks in
// bench_test.go so both measure the same thing. Access performs process
// pid's iteration k — one write to its own register plus a procs-wide read
// scan, the Algorithm 1 step shape — and Snapshot is what the concurrent
// stats monitor calls.
type CensusWorkload struct {
	Procs     int
	Registers int
	Access    func(pid, k int)
	Snapshot  func()
}

// censusWorkloadRegs is the Algorithm 1 register count for procs
// processes: SUSPICIONS (procs^2) + PROGRESS + STOP.
func censusWorkloadRegs(procs int) int { return procs*procs + 2*procs }

// MutexCensusWorkload builds the workload over the retired global-mutex
// census baseline.
func MutexCensusWorkload(procs int) CensusWorkload {
	nregs := censusWorkloadRegs(procs)
	c := shmem.NewMutexCensus(procs, nil)
	regs := make([]*shmem.MutexRegStats, nregs)
	for i := range regs {
		regs[i] = c.Track("X", shmem.RegName("X", i), i%procs)
	}
	return CensusWorkload{
		Procs:     procs,
		Registers: nregs,
		Access: func(pid, k int) {
			c.NoteWrite(regs[pid], pid, uint64(k))
			for j := 0; j < procs; j++ {
				c.NoteRead(regs[(pid+j)%nregs], pid)
			}
		},
		Snapshot: func() { c.SnapshotAll(regs) },
	}
}

// LockFreeCensusWorkload builds the workload over the lock-free census.
func LockFreeCensusWorkload(procs int) CensusWorkload {
	nregs := censusWorkloadRegs(procs)
	c := shmem.NewCensus(procs, nil)
	regs := make([]*shmem.RegStats, nregs)
	for i := range regs {
		regs[i] = c.Track("X", shmem.RegName("X", i), i%procs)
	}
	return CensusWorkload{
		Procs:     procs,
		Registers: nregs,
		Access: func(pid, k int) {
			c.NoteWrite(regs[pid], pid, uint64(k))
			for j := 0; j < procs; j++ {
				c.NoteRead(regs[(pid+j)%nregs], pid)
			}
		},
		Snapshot: func() { c.Snapshot() },
	}
}

// BenchCensusContention measures instrumented register-access throughput
// for procs concurrent processes under a live Stats monitor, against both
// census implementations (the workload of CensusWorkload; the monitor
// snapshots continuously, as a Fleet stats poller would).
//
// GOMAXPROCS is raised to procs+1 for the duration (and restored) so the
// measurement reflects a host with one core per process: the design target
// is hardware-speed multi-core operation, and on a starved host the mutex
// census would look artificially healthy because the scheduler, not the
// lock, does the serializing.
func BenchCensusContention(procs int, dur time.Duration) CensusContentionPoint {
	want := runtime.GOMAXPROCS(0)
	if procs+1 > want {
		want = procs + 1
	}
	var mutexOps, lockfreeOps float64
	WithGoMaxProcs(want, func() {
		mutexOps = contendedThroughput(MutexCensusWorkload(procs), dur)
		lockfreeOps = contendedThroughput(LockFreeCensusWorkload(procs), dur)
	})

	return CensusContentionPoint{
		Procs:             procs,
		Registers:         censusWorkloadRegs(procs),
		MutexOpsPerSec:    mutexOps,
		LockFreeOpsPerSec: lockfreeOps,
		Speedup:           lockfreeOps / mutexOps,
	}
}

// WithGoMaxProcs runs f with GOMAXPROCS set to procs and restores the
// previous value afterwards. Benchmarks use it to sweep host parallelism
// — live-stack throughput scales with it, virtual-time numbers must not.
func WithGoMaxProcs(procs int, f func()) {
	if prev := runtime.GOMAXPROCS(0); procs != prev {
		runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
	}
	f()
}

// contendedThroughput runs the workload's accessors and monitor for dur
// and returns register accesses per second.
func contendedThroughput(w CensusWorkload, dur time.Duration) float64 {
	return contendedRun(w.Procs, dur,
		func(pid int, stop *atomic.Bool) int64 {
			var ops int64
			for k := 0; !stop.Load(); k++ {
				w.Access(pid, k)
				ops += int64(w.Procs) + 1
			}
			return ops
		},
		func(stop *atomic.Bool) {
			for !stop.Load() {
				w.Snapshot()
			}
		})
}

// KVDriver runs a fresh single-leader consensus stack as wake-hinted
// engine machines: Put performs one synchronous committed write (the
// writer notifies the leader machine on submit and sleeps on a commit
// signal), Close tears the driver down. Shared by `omegabench -bench`
// (BENCH_engine_wakeup.json) and BenchmarkKVWakeDriven so both measure
// the same thing. The oracle is pinned to process 0, so the measurement
// isolates the engine and consensus layers from election dynamics.
type KVDriver struct {
	Put   func() error
	Close func()

	stores []*consensus.KV
	k      uint32
}

// NewWakeKVDriver builds the stack: procs replicas over a slots-long
// log, with interval as the engine's fallback poll.
func NewWakeKVDriver(procs, slots int, interval time.Duration) (*KVDriver, error) {
	mem := shmem.NewAtomicMem(procs, false)
	log := consensus.NewLog(mem, procs, slots)
	oracle := func() int { return 0 }
	stores := make([]*consensus.KV, procs)
	for i := 0; i < procs; i++ {
		r, err := consensus.NewReplica(log, i, oracle)
		if err != nil {
			return nil, err
		}
		if stores[i], err = consensus.NewKV(r); err != nil {
			return nil, err
		}
	}
	eng := engine.NewLive(engine.LiveConfig{})
	commit := make(chan struct{}, 1)
	ids := make([]int, procs)
	for i := range stores {
		i := i
		st := stores[i]
		ids[i] = eng.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
			newly, pending := st.StepBurst(now, 8)
			if newly > 0 {
				// Wake the followers to learn the decisions, and the
				// writer waiting on the leader's commit — as the public KV
				// machines do.
				for j, id := range ids {
					if j != i {
						eng.Notify(id)
					}
				}
				if i == 0 {
					select {
					case commit <- struct{}{}:
					default:
					}
				}
				return engine.Now()
			}
			if pending > 0 {
				return engine.At(now + int64(interval))
			}
			return engine.Park()
		}))
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	d := &KVDriver{stores: stores, Close: eng.Stop}
	d.Put = func() error {
		d.k++
		key, val := uint16(d.k%1024), uint16(d.k)
		cmd := consensus.EncodeSet(key, val)
		if cmd == consensus.NoValue {
			d.k++
			key, val = uint16(d.k%1024), uint16(d.k)
			cmd = consensus.EncodeSet(key, val)
		}
		if stores[0].CommittedLen() == stores[0].Capacity() {
			return fmt.Errorf("harness: wakeup stack log full")
		}
		if err := stores[0].Set(key, val); err != nil {
			return err
		}
		eng.Notify(ids[0])
		// The driver is the only writer and a key's next value always
		// differs from its current one (consecutive writes to a key are
		// 1024 apart), so the leader applying val is this write's commit.
		for {
			if v, ok := stores[0].Get(key); ok && v == val {
				return nil
			}
			<-commit
		}
	}
	return d, nil
}

// BenchEngineWakeup measures synchronous committed writes per second
// under the wake-driven engine at the given fallback poll interval.
func BenchEngineWakeup(procs int, interval, dur time.Duration) (EngineWakeupPoint, error) {
	// The driver commits at CPU speed, so any fixed log size can be
	// outrun by a long enough window: end the window early when the log
	// nears capacity and report the rate over the shortened run.
	const slots = 1 << 17
	d, err := NewWakeKVDriver(procs, slots, interval)
	if err != nil {
		return EngineWakeupPoint{}, err
	}
	defer d.Close()
	var commits int64
	start := time.Now()
	for time.Since(start) < dur && d.stores[0].CommittedLen() < slots-64 {
		if err := d.Put(); err != nil {
			return EngineWakeupPoint{}, err
		}
		commits++
	}
	return EngineWakeupPoint{
		Procs:             procs,
		IntervalUsec:      float64(interval) / float64(time.Microsecond),
		WakeCommitsPerSec: float64(commits) / time.Since(start).Seconds(),
	}, nil
}

// contendedRun drives procs worker goroutines plus one monitor goroutine
// for dur and returns the workers' summed throughput in ops per second.
func contendedRun(procs int, dur time.Duration, worker func(int, *atomic.Bool) int64, monitor func(*atomic.Bool)) float64 {
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for pid := 0; pid < procs; pid++ {
		wg.Add(1)
		go func(pid int) {
			defer wg.Done()
			total.Add(worker(pid, &stop))
		}(pid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		monitor(&stop)
	}()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return float64(total.Load()) / time.Since(start).Seconds()
}
