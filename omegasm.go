package omegasm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"omegasm/internal/core"
	"omegasm/internal/rt"
	"omegasm/internal/san"
	"omegasm/internal/shmem"
)

// Algorithm selects which of the paper's algorithms a Cluster runs.
type Algorithm int

// The available algorithms.
const (
	// WriteEfficient is the paper's Figure 2 algorithm: a single eventual
	// writer; all shared variables but one bounded.
	WriteEfficient Algorithm = iota + 1
	// Bounded is the paper's Figure 5 algorithm: every shared variable
	// bounded; every live process writes forever.
	Bounded
	// NWnR is the paper's Section 3.5 multi-writer variant: Figure 2 with
	// each SUSPICIONS column collapsed into one nWnR register, shrinking
	// the register count from O(n²) to O(n).
	NWnR
	// TimerFree is the paper's Section 3.5 clock-free variant: Figure 2
	// with the local timer replaced by a counted loop, so liveness needs
	// no assumption on hardware timers at all.
	TimerFree
)

func (a Algorithm) valid() bool {
	return a >= WriteEfficient && a <= TimerFree
}

// String returns the algorithm's name as used in WithAlgorithm docs and
// experiment output.
func (a Algorithm) String() string {
	switch a {
	case WriteEfficient:
		return "WriteEfficient"
	case Bounded:
		return "Bounded"
	case NWnR:
		return "NWnR"
	case TimerFree:
		return "TimerFree"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Cluster is a running set of Omega processes over one shared memory.
type Cluster struct {
	set   *settings
	mem   shmem.Mem
	disks []*san.Disk
	rt    *rt.Runtime

	// arena is the lazily created one-shot consensus instance Propose
	// drives; kvTaken marks the register namespace of the replicated log
	// as claimed; svcStopped refuses new service engines after Stop. All
	// under svcMu.
	svcMu      sync.Mutex
	arena      *proposeArena
	kvTaken    bool
	svcStopped bool
}

// New validates the options and builds a stopped Cluster; call Start to
// run it. WithN is required; everything else has defaults (algorithm
// WriteEfficient, substrate Atomic, pacing chosen by the substrate).
func New(opts ...Option) (*Cluster, error) {
	s := newSettings()
	if err := s.apply(opts); err != nil {
		return nil, err
	}
	if err := s.rejectFleetOptions(); err != nil {
		return nil, err
	}
	if err := s.rejectShardedOptions(); err != nil {
		return nil, err
	}
	return newCluster(s)
}

// newCluster builds a Cluster from resolved settings (shared by New and
// NewFleet, which resolves per-member settings itself).
func newCluster(s *settings) (*Cluster, error) {
	if err := s.finalizeCluster(); err != nil {
		return nil, err
	}
	opened, err := s.substrate.open(s.n, s.instrument)
	if err != nil {
		return nil, err
	}
	procs := make([]rt.Proc, s.n)
	switch s.algorithm {
	case WriteEfficient:
		for i, p := range core.BuildAlgo1(opened.mem, s.n) {
			procs[i] = p
		}
	case Bounded:
		for i, p := range core.BuildAlgo2(opened.mem, s.n) {
			procs[i] = p
		}
	case NWnR:
		for i, p := range core.BuildNWNR(opened.mem, s.n) {
			procs[i] = p
		}
	case TimerFree:
		for i, p := range core.BuildTimerFree(opened.mem, s.n) {
			procs[i] = p
		}
	default:
		return nil, fmt.Errorf("omegasm: unknown algorithm %v", s.algorithm)
	}
	run, err := rt.New(rt.Config{
		StepInterval: s.stepInterval,
		TimerUnit:    s.timerUnit,
	}, procs)
	if err != nil {
		return nil, err
	}
	return &Cluster{set: s, mem: opened.mem, disks: opened.disks, rt: run}, nil
}

// Start launches the cluster's processes. It may be called once.
func (c *Cluster) Start() error { return c.rt.Start() }

// Stop halts every process and joins all goroutines, including the
// engines of lazily started services (the Propose arena). Idempotent. A
// KV store's engine has its own lifecycle: call KV.Close.
func (c *Cluster) Stop() {
	c.rt.Stop()
	c.stopServices()
	// Retire the SAN disks' pipeline pumps last: services and processes
	// are joined, so no quorum traffic is left to submit. Stragglers
	// after this point (a KV closed out of order) degrade to the
	// synchronous disk path instead of deadlocking.
	for _, d := range c.disks {
		d.Close()
	}
}

// N returns the number of processes.
func (c *Cluster) N() int { return c.rt.N() }

// Algorithm returns the election algorithm the cluster runs.
func (c *Cluster) Algorithm() Algorithm { return c.set.algorithm }

// Substrate returns the name of the shared-memory substrate the cluster
// runs over ("atomic", "san").
func (c *Cluster) Substrate() string { return c.set.substrate.Name() }

// DiskCount returns the number of simulated disks backing a SAN cluster,
// or 0 on the atomic substrate.
func (c *Cluster) DiskCount() int { return len(c.disks) }

// CrashDisk permanently fails disk d of a SAN-backed cluster. Crashes of
// a minority of disks are masked by the quorum discipline; crashing a
// majority wedges the cluster (a configuration breach, as in the paper's
// model). It errors on the atomic substrate or an out-of-range index.
func (c *Cluster) CrashDisk(d int) error {
	if len(c.disks) == 0 {
		return fmt.Errorf("omegasm: substrate %q has no disks", c.Substrate())
	}
	if d < 0 || d >= len(c.disks) {
		return fmt.Errorf("omegasm: no disk %d (have %d)", d, len(c.disks))
	}
	c.disks[d].Crash()
	return nil
}

// Leader returns process i's current leader estimate.
func (c *Cluster) Leader(i int) (int, error) { return c.rt.Leader(i) }

// AgreedLeader returns the common leader estimate of all live processes,
// or (-1, false) while they disagree.
func (c *Cluster) AgreedLeader() (int, bool) { return c.rt.AgreedLeader() }

// WaitForAgreement blocks until every live process agrees on a live
// leader, or the timeout elapses.
func (c *Cluster) WaitForAgreement(timeout time.Duration) (int, bool) {
	return c.rt.WaitForAgreement(timeout)
}

// WaitForAgreementContext blocks until every live process agrees on a
// live leader, or ctx is done.
func (c *Cluster) WaitForAgreementContext(ctx context.Context) (int, bool) {
	return c.rt.WaitForAgreementContext(ctx)
}

// Crash stops process i, simulating a crash-stop failure. The survivors
// re-elect; crashed processes never recover.
func (c *Cluster) Crash(i int) error { return c.rt.Crash(i) }

// Crashed reports whether process i has been crashed.
func (c *Cluster) Crashed(i int) bool { return c.rt.Crashed(i) }

// stepInterval is the cluster's resolved pacing, reused by the service
// layer (Propose, KV) as its default driving cadence.
func (c *Cluster) stepInterval() time.Duration { return c.set.stepInterval }

// oracle returns process i's leader oracle for the consensus layer.
func (c *Cluster) oracle(i int) func() int {
	return func() int {
		l, err := c.rt.Leader(i)
		if err != nil {
			return -1
		}
		return l
	}
}

// LeadershipEvent reports a change in the cluster-wide agreement state,
// as observed by Watch.
type LeadershipEvent struct {
	// Leader is the agreed leader, or -1 while the live processes
	// disagree (the oracle's anarchy periods).
	Leader int
	// Agreed is false during anarchy periods.
	Agreed bool
	// At is when the change was observed.
	At time.Time
}

// Watch polls the cluster's agreement state every interval (default 1ms)
// and delivers an event whenever it changes: agreement reached, leader
// changed, or agreement lost. Callers must call cancel when done — the
// watcher goroutine runs until then (Stop does not end it) and closes the
// channel on exit. Slow receivers miss intermediate events rather than
// blocking the watcher (the channel always carries the most recent
// change).
func (c *Cluster) Watch(interval time.Duration) (events <-chan LeadershipEvent, cancel func()) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	ch := make(chan LeadershipEvent, 1)
	stop := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(ch)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		last := LeadershipEvent{Leader: -2} // sentinel: differs from any real state
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				leader, agreed := c.AgreedLeader()
				if agreed == last.Agreed && leader == last.Leader {
					continue
				}
				ev := LeadershipEvent{Leader: leader, Agreed: agreed, At: time.Now()}
				last = ev
				// Latest-wins delivery: if the 1-buffered channel is full,
				// drop the stale undelivered event (the receiver may have
				// just taken it, in which case there is nothing to drop)
				// and deliver the new one. The watcher is the sole sender,
				// so the freed slot cannot be refilled behind its back and
				// the second send never blocks.
				select {
				case ch <- ev:
				default:
					select {
					case <-ch:
					default:
					}
					ch <- ev
				}
			}
		}
	}()
	return ch, func() { once.Do(func() { close(stop) }) }
}

// RegisterStats describes one shared register's access counts.
type RegisterStats struct {
	// Name is the register's display name, e.g. "SUSPICIONS[2][3]".
	Name string
	// Owner is the writing process id, or -1 for multi-writer registers.
	Owner int
	// Reads counts the register's reads by all processes.
	Reads uint64
	// Writes counts the register's writes by all processes.
	Writes uint64
	// MaxValue is the largest value the register ever carried (the
	// boundedness evidence of the paper's theorems).
	MaxValue uint64
}

// Stats summarizes the cluster's shared-memory accesses. It returns nil
// unless WithInstrumentation was set.
type Stats struct {
	// Writers[p] is the total number of register writes by process p.
	Writers []uint64
	// Readers[p] is the total number of register reads by process p.
	Readers []uint64
	// Registers lists per-register detail, unordered.
	Registers []RegisterStats
	// TotalBits is the shared-memory footprint: bits needed to hold the
	// largest value each register ever carried, summed.
	TotalBits int
}

// Stats snapshots the access census, or returns nil if instrumentation is
// off (or the substrate records no census).
func (c *Cluster) Stats() *Stats {
	if !c.set.instrument {
		return nil
	}
	census := c.mem.Census()
	if census == nil {
		return nil
	}
	snap := census.Snapshot()
	s := &Stats{
		Writers:   make([]uint64, c.set.n),
		Readers:   make([]uint64, c.set.n),
		TotalBits: snap.TotalBits(),
	}
	for _, r := range snap.Regs {
		for p := range r.WritesBy {
			s.Writers[p] += r.WritesBy[p]
			s.Readers[p] += r.ReadsBy[p]
		}
		s.Registers = append(s.Registers, RegisterStats{
			Name:     r.Name,
			Owner:    r.Owner,
			Reads:    r.TotalReads(),
			Writes:   r.TotalWrites(),
			MaxValue: r.MaxValue,
		})
	}
	return s
}
