package omegasm

import (
	"fmt"
	"sort"

	"omegasm/check"
	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/sched"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// SimWrite is one workload write of a simulated run: at virtual time At
// the workload submits Set(Key, Val) to whichever process the oracle
// then names leader, and keeps resubmitting across leadership changes
// until the command commits — the deterministic analogue of KV.Put.
type SimWrite struct {
	// At is the submission time in virtual ticks.
	At int64
	// Key and Val form the command; the pair (0xFFFF, 0xFFFF) is reserved.
	Key, Val uint16
}

// SimCommit is one committed command of a simulated run, in log order.
type SimCommit struct {
	// Key and Val are the committed command's decoded pair.
	Key, Val uint16
}

// SimRequest is one open-loop workload request of a simulated run: it
// arrives at virtual time At on the clock, never gated on earlier
// requests' completions — the open-loop client model of the load
// harness, as opposed to the closed-loop SimWrite/SaturateWindow
// workloads. A write is submitted to whichever process the oracle then
// names leader and resubmitted across leadership changes until it
// commits; a read is answered at activation as KV.Read(ReadFreshest)
// answers it: from the agreed leader's applied state, or the freshest
// live replica's during anarchy. Per-request completion times come back in
// SimRequestResult, so virtual-time latency percentiles can be compared
// against live-measured ones.
type SimRequest struct {
	// At is the arrival time in virtual ticks.
	At int64
	// Key and Val form the command for a write; reads use Key only.
	Key, Val uint16
	// Read selects a local read instead of a replicated write.
	Read bool
	// Class is an opaque workload-class tag echoed into the result (the
	// load harness keys SLO classes on it).
	Class int
	// Client identifies the issuing client for the recorded history's
	// per-client guarantees (monotone reads); requests of one client must
	// not overlap in time for program order to be meaningful.
	Client int
}

// SimRequestResult is the reproducible outcome of one SimRequest.
type SimRequestResult struct {
	// Index is the request's position in the submitted Requests slice.
	Index int
	// At echoes the request's arrival time in virtual ticks.
	At int64
	// Done is the virtual time the request completed — a write's commit
	// confirmation, a read's local answer — or -1 if it was still
	// outstanding at the horizon. Done - At is the request's open-loop
	// latency in ticks, arrival queueing included.
	Done int64
	// Read echoes the request's Read flag.
	Read bool
	// Class echoes the request's workload-class tag.
	Class int
}

// SimKVConfig parameterizes one deterministic run of the full stack —
// Omega election, Disk-Paxos replicated log, key-value store — under the
// virtual-time engine. Identical configurations (including Seed) produce
// byte-identical results: the seeded adversary chooses the interleaving,
// crashes fire at exact virtual times, and every machine steps on one
// goroutine. This is the run class the paper quantifies over, opened up
// for the whole consensus stack instead of just the election layer.
type SimKVConfig struct {
	// N is the number of processes (>= 2).
	N int
	// Seed drives the run's scheduling adversary.
	Seed int64
	// Horizon ends the run, in virtual ticks; default 500_000.
	Horizon int64
	// Algorithm selects the election algorithm; default WriteEfficient.
	Algorithm Algorithm
	// Slots is the replicated log's slot window; default 256. With
	// checkpointing (the default) it bounds only the in-flight portion of
	// the stream; with checkpointing disabled it is the total capacity.
	Slots int
	// CheckpointEvery is the sealing cadence in slots, mirroring
	// KVCheckpointEvery: 0 picks the default (a quarter of Slots), a
	// negative value disables checkpointing and restores the
	// fixed-capacity log.
	CheckpointEvery int
	// Crashes maps pid -> virtual crash time: the process (its election
	// tasks and its replica) is permanently descheduled at that time, the
	// paper's crash-stop failure. At least one process must survive to
	// satisfy AWB1; crashing every process is rejected.
	Crashes map[int]int64
	// Writes is the workload. Entries may be in any order; they are
	// submitted at their At times.
	Writes []SimWrite
	// Requests is the open-loop workload: requests arrive at their At
	// times regardless of earlier completions, and each one's completion
	// time is reported in the result's Requests (parallel bookkeeping to
	// Writes, which tracks only a delivered count).
	Requests []SimRequest
	// Lease, when positive, turns on leader leases of that many virtual
	// ticks: replicas may only arm proposals while holding the lease
	// (KVLease's authority gate under the deterministic engine, with
	// eps 0 — a machine's clock read and its effects are one atomic
	// activation), and a monitor machine performs a lease read every few
	// ticks, recording the grant history and checking the linearizability
	// invariants into the result's LeaseGrants / LeaseViolations. Requires
	// checkpointing (the descriptor row carries the catch-up barriers);
	// zero leaves leases off, the prior behavior.
	Lease int64
	// Record turns on the scenario recorder: the run assembles a full
	// check.History — per-operation invocation/response events, the
	// committed stream as individually applied by every replica, the
	// final applied state, the lease-grant history — into the result's
	// History, ready for check.Verify. Off by default (recording costs a
	// map insert per applied command).
	Record bool
	// Faults configures the gray-failure fault models (stale election
	// registers, partial census visibility, timer skew, brownouts); nil
	// injects nothing.
	Faults *SimFaults
	// Mutation seeds a deliberate correctness bug (checker non-vacuity
	// proof); MutNone runs the real stack.
	Mutation SimMutation
}

// SimKVResult is the outcome of a simulated run. For a fixed SimKVConfig
// every field is reproducible run over run.
type SimKVResult struct {
	// Committed is the retained committed history in log order, taken
	// from the freshest live replica (all live replicas' streams agree on
	// their common prefix; this is consensus's safety). On a checkpointing
	// run it is the tail since that replica's last fully-applied
	// checkpoint — the sealed prefix is summarized by CommittedTotal and
	// reflected in State. Retries across failovers may commit a command
	// more than once; the store applies duplicates idempotently.
	Committed []SimCommit
	// CommittedTotal is the full committed-stream length of the freshest
	// live replica, including commands summarized away by checkpoints
	// (equal to len(Committed) when checkpointing never sealed).
	CommittedTotal int
	// Checkpoints is how many checkpoints the freshest live replica
	// passed; SnapshotInstalls counts the ones it passed by installing a
	// published snapshot rather than replaying.
	Checkpoints int
	// SnapshotInstalls counts snapshot installs at the freshest live
	// replica (see Checkpoints).
	SnapshotInstalls int
	// State is the freshest live replica's applied key-value state (the
	// last write per key of the committed stream, checkpointed prefix
	// included).
	State map[uint16]uint16
	// Delivered counts workload writes whose commit was confirmed before
	// the horizon.
	Delivered int
	// Crashed[p] reports whether process p crashed during the run.
	Crashed []bool
	// Leaders[p] is process p's final leader estimate, -1 if p crashed.
	Leaders []int
	// SlotsUsed is how many consensus slots the longest live replica
	// decided; with batching it lags len(Committed) by the average batch
	// size.
	SlotsUsed int
	// Requests holds one result per configured open-loop SimRequest,
	// ordered by Index (the submitted slice's order). Empty when the
	// config had no Requests.
	Requests []SimRequestResult
	// LeaseGrants is the full lease-acquisition history of a leased run
	// (SimKVConfig.Lease > 0), in acquisition order.
	LeaseGrants []SimLeaseGrant
	// LeaseReads counts monitor reads served lease-locally; LeaseFallbacks
	// counts monitor activations that found no readable grant (anarchy,
	// expiry, or a barrier still in flight) and would have fallen back to
	// a quorum read.
	LeaseReads, LeaseFallbacks int
	// LeaseViolations lists every lease-linearizability violation the
	// monitor or the history audit detected, humanly readable and
	// deterministic for a fixed config. A correct implementation always
	// leaves it empty; the seeded crash campaigns assert exactly that.
	LeaseViolations []string
	// History is the recorded check.History of a Record run, nil
	// otherwise. Pass it to check.Verify (or call Verify) for the full
	// linearizability/durability verdict.
	History *check.History
	// LeaderChanges counts agreed-leader changes the watcher observed
	// after the first election settled — the leader-churn anomaly metric
	// the campaign scorer ranks runs by.
	LeaderChanges int
	// CommitStallMax is the longest gap in virtual ticks between
	// consecutive newly learned commit positions on a Record run (plus
	// the tail gap to the horizon if writes were still undelivered);
	// 0 when not recording or nothing committed.
	CommitStallMax int64
	// End is the virtual time at which the run ended.
	End int64
}

// Verify runs the correctness checker over the run's recorded history.
// The run must have been executed with SimKVConfig.Record set; verdicts
// on unrecorded runs carry a single violation saying so.
func (r *SimKVResult) Verify(opt check.Options) check.Verdict {
	if r.History == nil {
		return check.Verdict{Violations: []string{"run was not recorded: set SimKVConfig.Record"}}
	}
	return check.Verify(r.History, opt)
}

// SimLeaseGrant is one recorded lease acquisition of a leased simulated
// run (the register history of internal/lease, decoded for results).
type SimLeaseGrant struct {
	// Epoch is the grant's epoch; strictly increasing across the history.
	Epoch uint64
	// Holder is the acquiring process.
	Holder int
	// AcquiredAt and Expiry bound the granted window in virtual ticks
	// (Expiry as granted; extensions push the live register further).
	AcquiredAt, Expiry int64
	// PrevExpiry is the previous grant's final expiry as observed by this
	// acquisition; AcquiredAt > PrevExpiry is the no-overlap invariant.
	PrevExpiry int64
}

// normalize fills the config's defaults and returns the validated shard
// configuration the run executes — the same value, so what was validated
// is exactly what runs.
func (cfg *SimKVConfig) normalize() (simShardConfig, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = 500_000
	}
	if cfg.Horizon < 0 {
		return simShardConfig{}, fmt.Errorf("omegasm: sim horizon must be positive, got %d", cfg.Horizon)
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = WriteEfficient
	}
	if cfg.Slots == 0 {
		cfg.Slots = 256
	}
	shard := simShardConfig{
		shape:     simShape(cfg.N, cfg.Slots, 1, cfg.CheckpointEvery),
		algorithm: cfg.Algorithm,
		crashes:   cfg.Crashes,
		writes:    cfg.Writes,
		lease:     cfg.Lease,
		record:    cfg.Record,
		faults:    cfg.Faults,
		mutation:  cfg.Mutation,
	}
	for i, r := range cfg.Requests {
		shard.requests = append(shard.requests, simIndexedRequest{req: r, index: i})
	}
	return shard, shard.validate()
}

// simShape maps the simulator's public log knobs onto the shared shape:
// CheckpointEvery 0 picks the default cadence, a negative value turns
// checkpointing off.
func simShape(n, slots, batch, ckptEvery int) logShape {
	switch {
	case ckptEvery == 0:
		ckptEvery = ckptAuto
	case ckptEvery < 0:
		ckptEvery = 0
	}
	return logShape{n: n, slots: slots, batch: batch, ckpt: ckptEvery}
}

// simShardConfig is the resolved per-shard configuration the builders
// consume: SimKV runs one shard, SimShardedKV one per partition.
type simShardConfig struct {
	shape     logShape // resolved by validate
	algorithm Algorithm
	crashes   map[int]int64
	writes    []SimWrite
	// requests is the shard's slice of the open-loop workload, each entry
	// carrying its index in the caller's Requests slice.
	requests []simIndexedRequest
	// window, when positive, adds a closed-loop load generator that keeps
	// that many commands in flight on the shard (the saturation workload
	// of the scaling benchmark).
	window int
	// lease, when positive, is the leader-lease duration in ticks
	// (authority-gated proposing plus the lease-read monitor).
	lease int64
	// record turns on the scenario recorder (SimKVConfig.Record).
	record bool
	// faults configures the gray-failure models; nil injects nothing.
	faults *SimFaults
	// mutation seeds a deliberate correctness bug (MutNone: none).
	mutation SimMutation
}

// simIndexedRequest pairs an open-loop request with its position in the
// caller's Requests slice, so sharded runs can reassemble results in
// submission order.
type simIndexedRequest struct {
	req   SimRequest
	index int
}

func (c *simShardConfig) validate() error {
	n := c.shape.n
	if n < 2 {
		return fmt.Errorf("omegasm: sim needs at least 2 processes, got %d", n)
	}
	if !c.algorithm.valid() {
		return fmt.Errorf("omegasm: unknown algorithm %v", c.algorithm)
	}
	if err := c.shape.resolve(); err != nil {
		return err
	}
	// Validate in sorted pid order: with several bad entries the error
	// reported must be the same on every run (map order must never pick
	// it), or seeded-replay comparisons of failing configs would flake.
	pids := make([]int, 0, len(c.crashes))
	for p := range c.crashes {
		pids = append(pids, p)
	}
	sort.Ints(pids)
	for _, p := range pids {
		if t := c.crashes[p]; p < 0 || p >= n {
			return fmt.Errorf("omegasm: crash schedule names process %d of %d", p, n)
		} else if t < 0 {
			return fmt.Errorf("omegasm: crash time %d for process %d is negative", t, p)
		}
	}
	if len(c.crashes) >= n {
		return fmt.Errorf("omegasm: crash schedule kills all %d processes; at least one must survive", n)
	}
	claimed := c.shape.reservesTopRow()
	for _, wr := range c.writes {
		if consensus.IsReserved(consensus.EncodeSet(wr.Key, wr.Val), claimed) {
			return fmt.Errorf("omegasm: key/value pair (0x%04x, 0x%04x) is reserved", wr.Key, wr.Val)
		}
		if wr.At < 0 {
			return fmt.Errorf("omegasm: write time %d is negative", wr.At)
		}
	}
	for _, ir := range c.requests {
		r := ir.req
		if !r.Read && consensus.IsReserved(consensus.EncodeSet(r.Key, r.Val), claimed) {
			return fmt.Errorf("omegasm: request key/value pair (0x%04x, 0x%04x) is reserved", r.Key, r.Val)
		}
		if r.At < 0 {
			return fmt.Errorf("omegasm: request time %d is negative", r.At)
		}
	}
	if c.window < 0 {
		return fmt.Errorf("omegasm: saturation window %d is negative", c.window)
	}
	if c.lease < 0 {
		return fmt.Errorf("omegasm: lease duration %d is negative", c.lease)
	}
	if err := c.faults.validate(); err != nil {
		return err
	}
	if !c.mutation.valid() {
		return fmt.Errorf("omegasm: unknown mutation %d", c.mutation)
	}
	return nil
}

// simRun holds one shard's machinery while the engine executes it: the
// election processes and the crash schedule that form the leadership
// view, the replica group that view drives, and the workload and
// observation machines around it.
type simRun struct {
	sim     *engine.Sim
	crashes map[int]int64
	procs   []core.Proc
	g       *replicaGroup

	// client drives Writes and Requests (nil when there are none);
	// monitor is a leased run's lease-read client (nil when unleased).
	client  *simClient
	monitor *simLeaseMonitor
	// rec is the scenario recorder of a recorded run, nil otherwise.
	rec *simHistoryRecorder
}

// simHistoryRecorder merges every replica's apply observations into one
// view of the committed stream: position -> command, with divergence
// detection (two replicas individually applying different commands at
// one position would be a consensus safety break) and commit-stall
// tracking for the campaign's anomaly score.
type simHistoryRecorder struct {
	// order maps a committed-stream position to the command every
	// observing replica applied there.
	order map[int]uint32
	// divergences records cross-replica disagreements (capped; a correct
	// stack never produces any).
	divergences []string
	// lastCommitAt and maxStall track the largest gap between
	// consecutive newly learned positions.
	lastCommitAt vclock.Time
	maxStall     int64
}

// note records replica-observed command cmd at stream position pos.
func (rec *simHistoryRecorder) note(pos int, cmd uint32, now vclock.Time) {
	if prev, ok := rec.order[pos]; ok {
		if prev != cmd && len(rec.divergences) < 8 {
			rec.divergences = append(rec.divergences, fmt.Sprintf(
				"t=%d: replicas applied different commands at position %d (%#x vs %#x) — committed streams diverged",
				now, pos, prev, cmd))
		}
		return
	}
	rec.order[pos] = cmd
	if stall := int64(now - rec.lastCommitAt); stall > rec.maxStall {
		rec.maxStall = stall
	}
	rec.lastCommitAt = now
}

// live reports whether process p is scheduled to be alive at time now.
// The crash schedule, not engine state, decides: a process whose crash
// time has passed is dead even if no event has collected it yet —
// matching how the sampler always treated crashes.
func (r *simRun) live(p int, now vclock.Time) bool {
	ct, ok := r.crashes[p]
	return !ok || now < ct
}

// agreedLeader returns the common leader estimate of all live processes,
// or (-1, false) while they disagree (the live AgreedLeader, evaluated
// deterministically inside the simulation).
func (r *simRun) agreedLeader(now vclock.Time) (int, bool) {
	leader := -1
	for p := range r.procs {
		if !r.live(p, now) {
			continue
		}
		l := r.procs[p].Leader()
		if leader == -1 {
			leader = l
		} else if leader != l {
			return -1, false
		}
	}
	if leader == -1 || !r.live(leader, now) {
		return -1, false
	}
	return leader, true
}

// simProcMachine runs one election process's T2/T3 tasks.
type simProcMachine struct{ p core.Proc }

//omegalint:allow wakehint sim-only machine: WakeNow under the Sim engine is paced by the seeded adversary (the paper's T2 loop always has work)
func (m simProcMachine) Step(now vclock.Time) engine.Hint {
	m.p.Step(now)
	return engine.Now()
}

func (m simProcMachine) OnTimer(now vclock.Time) uint64 { return m.p.OnTimer(now) }

// simLeaseMonitor is the adversarial lease-read client of a leased run:
// every few ticks it performs the exact lease-read protocol (readable
// grant -> serve from the holder's applied state) and checks the two
// properties a lease read must never break, across any crash schedule:
//
//   - Reads never go back in time: the serving replica's applied
//     watermark is non-decreasing across consecutive lease reads, even
//     when the serving holder changes across a crash + re-acquisition.
//
//   - Reads are never stale: at the instant of a served read, no live
//     replica's committed stream exceeds the serving holder's applied
//     state. While a readable grant is valid its holder is the only
//     commit authority and applies its own commits in the same atomic
//     activation, so any exceedance means a second authority committed
//     under the lease — exactly the straddle the design must exclude.
//
// Violations are recorded as deterministic strings; a correct
// implementation never produces any.
type simLeaseMonitor struct {
	r *simRun

	reads       int
	fallbacks   int
	lastApplied int
	lastEpoch   uint64
	violations  []string
}

func (m *simLeaseMonitor) Step(now vclock.Time) engine.Hint {
	holder, epoch, ok := m.r.g.lease.ReadableHolder(now)
	if !ok {
		m.fallbacks++
		return engine.At(now + 4)
	}
	m.reads++
	kv := m.r.g.stores[holder]
	applied := kv.Applied()
	if applied < m.lastApplied {
		m.violations = append(m.violations, fmt.Sprintf(
			"t=%d epoch=%d holder=%d: lease read went back in time (applied %d after %d)",
			now, epoch, holder, applied, m.lastApplied))
	}
	for p, other := range m.r.g.stores {
		if p != holder && m.r.live(p, now) && other.CommittedLen() > applied {
			m.violations = append(m.violations, fmt.Sprintf(
				"t=%d epoch=%d holder=%d: stale lease read (replica %d committed %d > holder applied %d)",
				now, epoch, holder, p, other.CommittedLen(), applied))
		}
	}
	m.lastApplied, m.lastEpoch = applied, epoch
	return engine.At(now + 4)
}

// simOp is one workload operation of a run — a SimWrite (index -1) or a
// SimRequest (its index in the caller's Requests) — with its outcome.
type simOp struct {
	req    SimRequest
	index  int
	put    putOp
	done   bool
	doneAt vclock.Time // completion time (valid when done)
	// gotVal/gotOK is a read's answer (valid when done), kept for the
	// recorded history.
	gotVal uint16
	gotOK  bool
}

// simClient is the workload driver, the deterministic analogue of the
// live callers: each operation starts at its arrival time — open loop,
// never gated on earlier completions — a read answers at once from the
// group's read replica (ReadFreshest), and a write is a putOp polled on
// every commit notification and at the fallback cadence until it
// commits, exactly as Put polls it.
type simClient struct {
	r      *simRun
	ops    []*simOp // sorted by arrival
	next   int      // ops[:next] have arrived
	active []*simOp // writes awaiting commit
}

func (c *simClient) Step(now vclock.Time) engine.Hint {
	g := c.r.g
	for ; c.next < len(c.ops) && c.ops[c.next].req.At <= now; c.next++ {
		op := c.ops[c.next]
		if op.req.Read {
			op.gotVal, op.gotOK = g.readStore().Get(op.req.Key)
			op.done, op.doneAt = true, now
		} else if op.put.start(g, []Entry{{Key: op.req.Key, Val: op.req.Val}}) == nil {
			c.active = append(c.active, op)
		}
	}
	pending := c.active[:0]
	for _, op := range c.active {
		// A write whose poll errors (a fixed log exhausted) never commits.
		if done, err := op.put.poll(); done {
			op.done, op.doneAt = true, now
		} else if err == nil {
			pending = append(pending, op)
		}
	}
	c.active = pending
	wake := vclock.Time(-1)
	if len(c.active) > 0 {
		wake = now + g.poll
	}
	if c.next < len(c.ops) && (wake < 0 || c.ops[c.next].req.At < wake) {
		wake = c.ops[c.next].req.At
	}
	if wake < 0 {
		return engine.Park() // every operation completed
	}
	return engine.At(wake)
}

// simSaturator is the closed-loop saturation workload of the scaling
// benchmark: it keeps a window of commands in flight as one putOp and
// starts the next window once the last one commits, so the shard's
// consensus pipeline is never starved and the committed count measures
// its capacity. Keys cycle over the low key space; delivery is not
// tracked (the committed history is the measurement).
type simSaturator struct {
	r      *simRun
	window int
	nextK  uint32
	put    putOp
	busy   bool
}

func (s *simSaturator) Step(now vclock.Time) engine.Hint {
	if !s.busy {
		entries := make([]Entry, s.window)
		for i := range entries {
			// Keys stay far below the reserved 0xFFFF row.
			entries[i] = Entry{Key: uint16(s.nextK % 1024), Val: uint16(s.nextK)}
			s.nextK++
		}
		if s.put.start(s.r.g, entries) != nil {
			return engine.Park()
		}
		s.busy = true
	}
	done, err := s.put.poll()
	switch {
	case err != nil:
		return engine.Park() // a fixed log is exhausted
	case done:
		s.busy = false
		return engine.At(now + 1)
	}
	return engine.At(now + s.r.g.poll)
}

// simElectionClasses names the register classes eligible for fault
// injection: the election layer's families, never the consensus log's.
func simElectionClasses() map[string]bool {
	return map[string]bool{
		core.ClassSuspicions: true,
		core.ClassProgress:   true,
		core.ClassStop:       true,
		core.ClassLast:       true,
		core.ClassNSusp:      true,
		core.ClassHB:         true,
		core.ClassSSusp:      true,
	}
}

// simBrownout wraps a pacing with the configured brownout window, or
// returns it unchanged when none is configured.
func simBrownout(f *SimFaults, p engine.Pacing) engine.Pacing {
	if !f.brownout() {
		return p
	}
	return sched.Brownout{
		P:      p,
		From:   vclock.Time(f.BrownoutFrom),
		To:     vclock.Time(f.BrownoutTo),
		Factor: vclock.Duration(f.BrownoutFactor),
	}
}

// addSimShard builds one shard's full stack — election processes,
// replicas over a (possibly batched) log, leadership watcher, workload
// writers — and registers every machine on sim. Machines are added in a
// fixed order, so the run stays a pure function of (seed, config).
func addSimShard(sim *engine.Sim, cfg simShardConfig) (*simRun, error) {
	n := cfg.shape.n
	mem := shmem.NewSimMem(n)
	run := &simRun{sim: sim, crashes: cfg.crashes}

	// The election build sees the (possibly) faulted view of the shared
	// memory; the consensus log below always gets the raw atomic memory,
	// so register faults probe the election algorithms' regular-register
	// tolerance without breaking the Paxos substrate's assumptions.
	var electionMem shmem.Mem = mem
	if cfg.faults.registerFaults() {
		electionMem = shmem.NewFaultMem(mem, shmem.FaultConfig{
			StaleReadP:     cfg.faults.StaleReadP,
			StaleWindow:    cfg.faults.StaleWindow,
			PartialViewP:   cfg.faults.PartialViewP,
			PartialViewLen: cfg.faults.PartialViewLen,
			Classes:        simElectionClasses(),
		}, sim.Now, sim.Rng())
	}

	run.procs = make([]core.Proc, n)
	switch cfg.algorithm {
	case WriteEfficient:
		for i, p := range core.BuildAlgo1(electionMem, n) {
			run.procs[i] = p
		}
	case Bounded:
		for i, p := range core.BuildAlgo2(electionMem, n) {
			run.procs[i] = p
		}
	case NWnR:
		for i, p := range core.BuildNWNR(electionMem, n) {
			run.procs[i] = p
		}
	case TimerFree:
		for i, p := range core.BuildTimerFree(electionMem, n) {
			run.procs[i] = p
		}
	}

	// AWB1 needs one correct process with eventually bounded step gaps:
	// designate the lowest pid the crash schedule spares.
	awb := -1
	for p := 0; p < n; p++ {
		if _, crashes := cfg.crashes[p]; !crashes {
			awb = p
			break
		}
	}
	for p := 0; p < n; p++ {
		// The non-designated processes face the canonical asynchronous
		// adversary — usually prompt, occasionally stalled for hundreds of
		// ticks — so the run genuinely exercises asynchrony; the AWB1
		// process gets the same adversary with its delays clamped to delta,
		// which is what makes the designation (and the election's liveness)
		// real rather than vacuous.
		var pacing engine.Pacing = sched.HeavyTail{Min: 1, Max: 8, StallP: 0.01, StallMax: 256}
		if p == awb {
			pacing = sched.Clamp{P: pacing, Delta: 8}
		}
		// The brownout wraps outside the AWB1 clamp: inside the window
		// even the designated process slows, but the window is finite, so
		// the eventual bound survives. Skew draws happen in Add order, so
		// the per-process assignment is a pure function of the seed.
		pacing = simBrownout(cfg.faults, pacing)
		scale := vclock.Duration(4)
		if f := cfg.faults; f != nil && f.TimerSkewMax > 0 {
			scale += vclock.Duration(sim.Rng().Intn(f.TimerSkewMax + 1))
		}
		opts := []engine.SimOpt{
			engine.WithPacing(pacing),
			engine.WithTimer(vclock.Exact{Scale: scale, Floor: 1}, 1),
		}
		if ct, ok := cfg.crashes[p]; ok {
			opts = append(opts, engine.WithCrashAt(ct))
		}
		sim.Add(simProcMachine{p: run.procs[p]}, opts...)
	}

	// MutPrematureLeaseExtend runs the acquire guard with a negative skew
	// bound, admitting a new grant while the previous one is still valid;
	// MutDropQuorumAck acknowledges writes at submission.
	eps := int64(0)
	if cfg.mutation == MutPrematureLeaseExtend {
		eps = -2 * cfg.lease
	}
	var drivers []int // workload machines, woken by commits as Put waiters are
	g, err := newReplicaGroup(mem, groupParams{
		shape:       cfg.shape,
		leaseDur:    cfg.lease,
		leaseEps:    eps,
		burst:       1, // the pacing is the asynchrony model: one micro-step per wake
		poll:        16,
		ackAtSubmit: cfg.mutation == MutDropQuorumAck,
		view: leaderView{
			agreed:  func() (int, bool) { return run.agreedLeader(sim.Now()) },
			crashed: func(i int) bool { return !run.live(i, sim.Now()) },
		},
		oracle: func(i int) func() int { return run.procs[i].Leader },
		notify: sim.Notify,
		onCommit: func() {
			for _, id := range drivers {
				sim.Notify(id)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	run.g = g
	if g.lease != nil {
		g.lease.EnableHistory()
	}
	for i, st := range g.stores {
		if cfg.record {
			if run.rec == nil {
				run.rec = &simHistoryRecorder{order: make(map[int]uint32)}
			}
			rec := run.rec
			st.SetApplyObserver(func(pos int, cmd uint32) {
				rec.note(pos, cmd, sim.Now())
			})
		}
		opts := []engine.SimOpt{engine.WithPacing(simBrownout(cfg.faults, sched.Uniform{Min: 1, Max: 8}))}
		if ct, ok := cfg.crashes[i]; ok {
			opts = append(opts, engine.WithCrashAt(ct))
		}
		g.ids = append(g.ids, sim.Add(g.replica(i), opts...))
	}
	sim.Add(engine.MachineFunc(g.watch), engine.WithFirstWakeAt(16))
	if g.lease != nil {
		run.monitor = &simLeaseMonitor{r: run}
		sim.Add(run.monitor, engine.WithFirstWakeAt(16))
	}

	var ops []*simOp
	for _, w := range cfg.writes {
		ops = append(ops, &simOp{req: SimRequest{At: w.At, Key: w.Key, Val: w.Val}, index: -1})
	}
	for _, ir := range cfg.requests {
		ops = append(ops, &simOp{req: ir.req, index: ir.index})
	}
	if len(ops) > 0 {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].req.At < ops[j].req.At })
		run.client = &simClient{r: run, ops: ops}
		drivers = append(drivers, sim.Add(run.client, engine.WithFirstWakeAt(max(1, ops[0].req.At))))
	}
	if cfg.window > 0 {
		drivers = append(drivers, sim.Add(&simSaturator{r: run, window: cfg.window}, engine.WithFirstWakeAt(16)))
	}
	return run, nil
}

// collect assembles the shard's reproducible outcome at end time.
func (r *simRun) collect(end vclock.Time) *SimKVResult {
	n := len(r.procs)
	res := &SimKVResult{
		State:         make(map[uint16]uint16),
		Crashed:       make([]bool, n),
		Leaders:       make([]int, n),
		LeaderChanges: r.g.changes,
		End:           end,
	}
	if r.g.lease != nil {
		res.LeaseReads = r.monitor.reads
		res.LeaseFallbacks = r.monitor.fallbacks
		res.LeaseViolations = append(res.LeaseViolations, r.monitor.violations...)
		for _, g := range r.g.lease.History() {
			res.LeaseGrants = append(res.LeaseGrants, SimLeaseGrant{
				Epoch: g.Epoch, Holder: g.Holder,
				AcquiredAt: int64(g.AcquiredAt), Expiry: int64(g.Expiry),
				PrevExpiry: int64(g.PrevExpiry),
			})
		}
		// The history audit (epochs advance by one, windows never overlap,
		// observed expiries never regress) is the checker's lease pass,
		// run with eps 0: the deterministic engine has no clock skew.
		res.LeaseViolations = append(res.LeaseViolations,
			check.Leases(simCheckGrants(res.LeaseGrants), 0)...)
	}
	undelivered := false
	if r.client != nil {
		for _, op := range r.client.ops {
			if op.index < 0 {
				if op.done {
					res.Delivered++
				} else {
					undelivered = true
				}
				continue
			}
			rr := SimRequestResult{Index: op.index, At: op.req.At, Done: -1, Read: op.req.Read, Class: op.req.Class}
			if op.done {
				rr.Done = op.doneAt
			}
			res.Requests = append(res.Requests, rr)
		}
		sort.Slice(res.Requests, func(i, j int) bool { return res.Requests[i].Index < res.Requests[j].Index })
	}
	stores := r.g.stores
	freshest := -1
	for p := 0; p < n; p++ {
		if !r.live(p, end) {
			res.Crashed[p] = true
			res.Leaders[p] = -1
			continue
		}
		res.Leaders[p] = r.procs[p].Leader()
		if freshest < 0 || stores[p].CommittedLen() > stores[freshest].CommittedLen() {
			freshest = p
		}
	}
	if freshest >= 0 {
		kv := stores[freshest]
		res.CommittedTotal = kv.CommittedLen()
		res.SlotsUsed = kv.SlotsDecided()
		res.Checkpoints = kv.Checkpoints()
		res.SnapshotInstalls = kv.SnapshotInstalls()
		for _, cmd := range kv.Committed() {
			k, v := consensus.DecodeSet(cmd)
			res.Committed = append(res.Committed, SimCommit{Key: k, Val: v})
		}
		res.State = kv.Snapshot()
	}
	if r.rec != nil {
		res.CommitStallMax = r.rec.maxStall
		// The tail counts as a stall only when work was actually starved:
		// a run whose writes all delivered is simply done.
		if undelivered {
			if tail := int64(end - r.rec.lastCommitAt); tail > res.CommitStallMax {
				res.CommitStallMax = tail
			}
		}
		res.History = r.assembleHistory(res, freshest)
	}
	return res
}

// assembleHistory renders a recorded run as the checker's History: the
// client operation events, the merged committed stream, the freshest
// replica's final applied state, the lease grants, and the in-run
// monitor's breaches (External — the grant audit is not duplicated
// there, Verify re-derives it from Grants).
func (r *simRun) assembleHistory(res *SimKVResult, freshest int) *check.History {
	h := &check.History{}
	if r.client != nil {
		for _, op := range r.client.ops[:r.client.next] {
			o := check.Op{Kind: check.Put, Client: op.req.Client, Key: op.req.Key, Val: op.req.Val, Invoke: op.req.At, Return: -1}
			if op.req.Read {
				o.Kind, o.Mode, o.Val, o.Found = check.Get, check.Freshest, op.gotVal, op.gotOK
			}
			if op.done {
				o.Return = int64(op.doneAt)
			}
			h.Ops = append(h.Ops, o)
		}
	}
	poss := make([]int, 0, len(r.rec.order))
	for p := range r.rec.order {
		poss = append(poss, p)
	}
	sort.Ints(poss)
	for _, p := range poss {
		k, v := consensus.DecodeSet(r.rec.order[p])
		h.Commits = append(h.Commits, check.Commit{Pos: p, Key: k, Val: v})
	}
	if freshest >= 0 {
		h.FinalApplied = r.g.stores[freshest].Applied()
		h.Final = res.State
	}
	h.Grants = simCheckGrants(res.LeaseGrants)
	if r.monitor != nil {
		h.External = append(h.External, r.monitor.violations...)
	}
	h.External = append(h.External, r.rec.divergences...)
	return h
}

// simCheckGrants converts result grants to the checker's grant type.
func simCheckGrants(gs []SimLeaseGrant) []check.Grant {
	out := make([]check.Grant, 0, len(gs))
	for _, g := range gs {
		out = append(out, check.Grant{
			Epoch: g.Epoch, Holder: g.Holder,
			AcquiredAt: g.AcquiredAt, Expiry: g.Expiry, PrevExpiry: g.PrevExpiry,
		})
	}
	return out
}

// SimKV executes one deterministic run of the full consensus/KV stack
// under the virtual-time engine and returns its reproducible outcome:
// same config (and seed), same committed history, byte for byte. Use it
// to script failover scenarios — crash the leader mid-workload, replay
// with another seed, diff the histories — that the live runtime can only
// approximate statistically.
func SimKV(cfg SimKVConfig) (*SimKVResult, error) {
	shard, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: cfg.Seed, Horizon: cfg.Horizon})
	if err != nil {
		return nil, err
	}
	run, err := addSimShard(sim, shard)
	if err != nil {
		return nil, err
	}
	return run.collect(sim.Run()), nil
}

// SimShardCrash schedules one crash of a sharded simulated run: process
// Proc of shard Shard is permanently descheduled at virtual time At.
type SimShardCrash struct {
	// Shard and Proc locate the process.
	Shard, Proc int
	// At is the crash time in virtual ticks.
	At int64
}

// SimShardedKVConfig parameterizes one deterministic run of a whole
// sharded store — S independent shards, each a full
// election/consensus/KV stack, in one virtual-time engine. It is the
// deterministic analogue of ShardedKV: writes route by the same hash,
// shards fail independently, and identical configurations produce
// byte-identical per-shard commit histories. Because virtual time models
// every machine as its own processor, a sharded sim also measures the
// architecture's parallel capacity exactly — the scaling benchmark runs
// this with SaturateWindow set.
type SimShardedKVConfig struct {
	// Shards is the number of hash partitions (>= 1).
	Shards int
	// N is the number of processes per shard (>= 2).
	N int
	// Seed drives the run's scheduling adversary.
	Seed int64
	// Horizon ends the run, in virtual ticks; default 500_000.
	Horizon int64
	// Algorithm selects the election algorithm; default WriteEfficient.
	Algorithm Algorithm
	// Slots is each shard's replicated-log capacity; default 256.
	Slots int
	// BatchSize is each shard's proposal batch size; default
	// DefaultBatchSize, 1 turns batching off. Batched runs reserve the
	// key 0xFFFF row, as ShardedKV does.
	BatchSize int
	// CheckpointEvery is each shard's sealing cadence in slots, mirroring
	// WithCheckpointEvery: 0 picks the default (a quarter of Slots), a
	// negative value disables checkpointing (fixed-capacity shard logs).
	CheckpointEvery int
	// Crashes is the cross-shard crash schedule. At least one process per
	// shard must survive.
	Crashes []SimShardCrash
	// Writes is the tracked workload: each write routes to its key's
	// shard (the ShardFor hash) and is retried across that shard's
	// leadership changes until committed.
	Writes []SimWrite
	// Requests is the open-loop workload: each request routes to its
	// key's shard and arrives there at its At time regardless of earlier
	// completions; per-request completion times come back in the result's
	// Requests, in submission order.
	Requests []SimRequest
	// SaturateWindow, when positive, adds one closed-loop load generator
	// per shard that keeps that many commands in flight — one group write
	// of that many entries, the next submitted once it commits — the
	// saturation workload whose committed count measures shard capacity.
	// Zero: no generated load.
	SaturateWindow int
	// Record turns on the scenario recorder per shard (each shard's
	// result carries its own History); see SimKVConfig.Record.
	Record bool
	// Faults configures every shard's gray-failure fault models; nil
	// injects nothing. See SimKVConfig.Faults.
	Faults *SimFaults
}

// SimShardedKVResult is the reproducible outcome of a sharded simulated
// run.
type SimShardedKVResult struct {
	// Shards holds each shard's full outcome (committed history, state,
	// per-process fates), indexed by shard.
	Shards []SimKVResult
	// State is the union of the shards' states (hash partitioning makes
	// the key sets disjoint).
	State map[uint16]uint16
	// TotalCommitted is the total number of committed commands across
	// shards.
	TotalCommitted int
	// TotalSlots is the total number of consensus slots those commands
	// used; TotalCommitted/TotalSlots is the measured average batch size.
	TotalSlots int
	// Delivered counts tracked workload writes whose commit was confirmed
	// before the horizon, across all shards.
	Delivered int
	// Requests holds one result per configured open-loop SimRequest,
	// merged across shards and ordered by Index (the submitted slice's
	// order). Empty when the config had no Requests.
	Requests []SimRequestResult
	// End is the virtual time at which the run ended.
	End int64
}

func (cfg *SimShardedKVConfig) normalize() ([]simShardConfig, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("omegasm: sim needs at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 500_000
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("omegasm: sim horizon must be positive, got %d", cfg.Horizon)
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = WriteEfficient
	}
	if cfg.Slots == 0 {
		cfg.Slots = 256
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	shards := make([]simShardConfig, cfg.Shards)
	for s := range shards {
		shards[s] = simShardConfig{
			shape:     simShape(cfg.N, cfg.Slots, cfg.BatchSize, cfg.CheckpointEvery),
			algorithm: cfg.Algorithm,
			crashes:   map[int]int64{},
			window:    cfg.SaturateWindow,
			record:    cfg.Record,
			faults:    cfg.Faults,
		}
	}
	for _, cr := range cfg.Crashes {
		if cr.Shard < 0 || cr.Shard >= cfg.Shards {
			return nil, fmt.Errorf("omegasm: crash schedule names shard %d of %d", cr.Shard, cfg.Shards)
		}
		shards[cr.Shard].crashes[cr.Proc] = cr.At
	}
	for _, wr := range cfg.Writes {
		sh := &shards[shardIndex(wr.Key, cfg.Shards)]
		sh.writes = append(sh.writes, wr)
	}
	for i, r := range cfg.Requests {
		sh := &shards[shardIndex(r.Key, cfg.Shards)]
		sh.requests = append(sh.requests, simIndexedRequest{req: r, index: i})
	}
	for s := range shards {
		if err := shards[s].validate(); err != nil {
			return nil, fmt.Errorf("omegasm: shard %d: %w", s, err)
		}
	}
	return shards, nil
}

// SimShardedKV executes one deterministic run of a whole sharded store
// under the virtual-time engine: same config (and seed), same per-shard
// committed histories, byte for byte. Use it to script cross-shard
// failover scenarios (crash one shard's leader mid-workload and replay),
// and — with SaturateWindow — to measure how aggregate commit capacity
// scales with the shard count when every machine has its own virtual
// processor.
func SimShardedKV(cfg SimShardedKVConfig) (*SimShardedKVResult, error) {
	shardCfgs, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sim, err := engine.NewSim(engine.SimConfig{Seed: cfg.Seed, Horizon: cfg.Horizon})
	if err != nil {
		return nil, err
	}
	runs := make([]*simRun, len(shardCfgs))
	for s, sc := range shardCfgs {
		if runs[s], err = addSimShard(sim, sc); err != nil {
			return nil, fmt.Errorf("omegasm: shard %d: %w", s, err)
		}
	}
	end := sim.Run()
	res := &SimShardedKVResult{
		State: make(map[uint16]uint16),
		End:   end,
	}
	for _, run := range runs {
		sr := run.collect(end)
		res.Shards = append(res.Shards, *sr)
		res.TotalCommitted += sr.CommittedTotal
		res.TotalSlots += sr.SlotsUsed
		res.Delivered += sr.Delivered
		res.Requests = append(res.Requests, sr.Requests...)
		for k, v := range sr.State {
			res.State[k] = v
		}
	}
	sort.Slice(res.Requests, func(i, j int) bool { return res.Requests[i].Index < res.Requests[j].Index })
	return res, nil
}
