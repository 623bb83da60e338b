package omegasm

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/lease"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// ckptAuto is the sentinel for "checkpoint cadence not chosen": the shape
// resolver derives it from the slot count.
const ckptAuto = -1

// logShape is the replicated log's geometry: processes, slot window,
// proposal batch size and checkpoint cadence (ckptAuto until resolved).
type logShape struct {
	n, slots, batch, ckpt int
}

// resolve applies the checkpoint-auto default and validates the shape:
// the one rule set NewKV, NewShardedKV and the simulator share. The
// default seals every quarter window; shapes that cannot checkpoint (a
// 1-slot log, more processes than descriptors can name) silently keep
// the fixed-capacity log instead of erroring.
func (s *logShape) resolve() error {
	if s.slots < 1 {
		return fmt.Errorf("omegasm: need at least 1 log slot, got %d", s.slots)
	}
	if s.batch < 1 {
		return fmt.Errorf("omegasm: KV batch size must be at least 1, got %d", s.batch)
	}
	if s.batch > 1 && s.n > consensus.MaxBatchProcs {
		return fmt.Errorf("omegasm: KV batching supports at most %d processes, got %d",
			consensus.MaxBatchProcs, s.n)
	}
	if s.ckpt == ckptAuto {
		s.ckpt = consensus.DefaultCheckpointEvery(s.slots, s.n)
	}
	if s.ckpt > 0 {
		if s.n > consensus.MaxBatchProcs {
			return fmt.Errorf("omegasm: KV checkpointing supports at most %d processes, got %d",
				consensus.MaxBatchProcs, s.n)
		}
		if s.ckpt >= s.slots {
			return fmt.Errorf("omegasm: checkpoint interval %d must be below the %d-slot window",
				s.ckpt, s.slots)
		}
	}
	return nil
}

// reservesTopRow reports whether a resolved shape claims the descriptor
// row (batching or checkpointing on) — what no-op barriers, and so
// leases and quorum reads, need.
func (s logShape) reservesTopRow() bool { return s.batch > 1 || s.ckpt > 0 }

// leaderView is the replica group's window on the election layer: the
// live processes' common leader estimate and the crash state. The live
// store reads the Cluster; the simulator evaluates its crash schedule at
// the current virtual time.
type leaderView struct {
	agreed  func() (int, bool)
	crashed func(i int) bool
}

// leader returns the agreed leader, provided it is live.
func (v leaderView) leader() (int, bool) {
	l, ok := v.agreed()
	if !ok || l < 0 || v.crashed(l) {
		return -1, false
	}
	return l, true
}

// groupParams is everything a replica group takes from the engine that
// runs it. Times are engine units: nanoseconds live, ticks in the sim.
type groupParams struct {
	shape logShape // resolved
	// leaseDur is the lease duration (0: leases off) and leaseEps the
	// acquire guard's skew bound (see lease.Register.Acquire).
	leaseDur, leaseEps int64
	// burst is the replica micro-steps per activation, poll the fallback
	// cadence of the watcher and of replicas that cannot drain.
	burst int
	poll  int64
	// ackAtSubmit makes putOps acknowledge at submission instead of at
	// commit confirmation (the MutDropQuorumAck hook).
	ackAtSubmit bool

	view   leaderView
	oracle func(i int) func() int
	// notify wakes an engine machine; onCommit runs after a replica step
	// made progress (live: wakes the quorum readers' fences).
	notify   func(id int)
	onCommit func()
}

// replicaGroup is one replicated store below the public API: the
// checkpoint log, one consensus.KV replica per process, the lease
// authority gate and register, the replica machines and the leadership
// watcher. KV runs it on engine.Live, SimKV and SimShardedKV on
// engine.Sim; the machines are the same code under both.
type replicaGroup struct {
	groupParams
	stores []*consensus.KV
	ids    []int // engine machine id of each replica; set by the caller

	// lease is the leader-lease register behind ReadLease (nil: off).
	lease *lease.Register

	// lastLeader and changes are the watcher's state: the last agreed
	// leader it acted on, and how many times that changed after the first
	// election settled.
	lastLeader int
	changes    int

	// waitMu guards the waiter table: puts holds the write operations with
	// commands still awaiting commit (the commit hook retires them), fences
	// the quorum readers awaiting any log progress. acked counts the
	// committed stream positions already matched against the table; the
	// first replica to apply a position matches it, and the others skip
	// it, so a lagging replica replaying old positions never acknowledges
	// an operation that began after them.
	waitMu sync.Mutex
	puts   []*putOp
	fences []waiter
	acked  atomic.Int64
}

// waiter is a blocked caller's wake-up: a one-slot channel signalled
// without blocking, so a signal is never lost and never allocates. A nil
// waiter — the simulator's operations, which their drivers re-poll on
// engine wakes — ignores signals.
type waiter chan struct{}

func (w waiter) signal() {
	select {
	case w <- struct{}{}:
	default:
	}
}

// drain clears a pooled op's stale signal before its next user.
func (w waiter) drain() {
	select {
	case <-w:
	default:
	}
}

// newReplicaGroup allocates the log on mem and builds one store per
// process, each gated on the lease when leases are on. The caller
// registers replica(i) and watch on its engine and records the ids.
func newReplicaGroup(mem shmem.Mem, p groupParams) (*replicaGroup, error) {
	s := p.shape
	if p.leaseDur > 0 && !s.reservesTopRow() {
		return nil, fmt.Errorf("omegasm: leases need batching or checkpointing enabled")
	}
	log, err := consensus.NewCheckpointLog(mem, s.n, s.slots, s.batch, s.ckpt)
	if err != nil {
		return nil, fmt.Errorf("omegasm: %w", err)
	}
	g := &replicaGroup{groupParams: p, lastLeader: -1}
	if p.leaseDur > 0 {
		g.lease = &lease.Register{}
	}
	for i := 0; i < s.n; i++ {
		replica, err := consensus.NewReplica(log, i, p.oracle(i))
		if err != nil {
			return nil, fmt.Errorf("omegasm: kv replica %d: %w", i, err)
		}
		store, err := consensus.NewKV(replica)
		if err != nil {
			return nil, fmt.Errorf("omegasm: kv replica %d: %w", i, err)
		}
		if g.lease != nil {
			// The authority gate: no replica arms a proposal without
			// holding the lease, which is what makes a valid lease
			// exclusive commit authority (see internal/lease).
			reg, id := g.lease, i
			store.SetAuthority(func(t vclock.Time) bool {
				_, held := reg.Held(id, t)
				return held
			})
		}
		store.SetCommitHook(g.applied)
		g.stores = append(g.stores, store)
	}
	return g, nil
}

// applied is every store's commit hook. It runs under the applying
// replica's step lock, before any checkpoint can trim the position from
// the retained tail, so no committed command escapes it. The first
// replica to apply stream position pos retires cmd from every waiting
// write and wakes the writes it completes.
func (g *replicaGroup) applied(pos int, cmd uint32) {
	if int64(pos) < g.acked.Load() {
		return // another replica applied it first
	}
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	if int64(pos) < g.acked.Load() {
		return
	}
	g.acked.Store(int64(pos) + 1)
	waiting := g.puts[:0]
	for _, op := range g.puts {
		if j := slices.Index(op.remaining, cmd); j >= 0 {
			op.remaining = slices.Delete(op.remaining, j, j+1)
		}
		if len(op.remaining) == 0 {
			op.wake.signal()
			continue
		}
		waiting = append(waiting, op)
	}
	clear(g.puts[len(waiting):])
	g.puts = waiting
}

// wakeFences wakes every quorum reader: the live store's onCommit.
func (g *replicaGroup) wakeFences() {
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	for _, w := range g.fences {
		w.signal()
	}
}

// wakeWaiters wakes every blocked caller. The watcher calls it at its
// poll cadence — the fallback that lets a call notice a leadership move
// or a queue sweep and resubmit without a timer of its own — and Close
// calls it to release them.
func (g *replicaGroup) wakeWaiters() {
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	for _, op := range g.puts {
		op.wake.signal()
	}
	for _, w := range g.fences {
		w.signal()
	}
}

// addFence registers a quorum reader's waiter; removeFence withdraws it.
func (g *replicaGroup) addFence(w waiter) {
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	g.fences = append(g.fences, w)
}

func (g *replicaGroup) removeFence(w waiter) {
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	if i := slices.Index(g.fences, w); i >= 0 {
		g.fences = slices.Delete(g.fences, i, i+1)
	}
}

// replica returns the machine that drives store i.
func (g *replicaGroup) replica(i int) engine.Machine {
	return &kvMachine{g: g, idx: i, store: g.stores[i]}
}

// kvMachine drives one replica under the engine's wake-hint contract.
type kvMachine struct {
	g     *replicaGroup
	idx   int
	store *consensus.KV

	// Lease state of this replica's reigns: acqGen is the store's fence
	// generation snapshot taken at the last acquisition, and barrierDone
	// records that the catch-up barrier for it has completed (the lease
	// was marked readable). Only this machine's activations touch them.
	acqGen      uint64
	barrierDone bool
}

// Step implements engine.Machine. The hint encodes the replica's state:
// draining work wants the CPU back immediately, a replica with a queued
// command but no leadership polls at the fallback cadence (leadership may
// move to it, or the watcher may drop its queue), and an idle caught-up
// replica parks until a write or a commit notification arrives.
func (m *kvMachine) Step(now vclock.Time) engine.Hint {
	g := m.g
	if g.view.crashed(m.idx) {
		return engine.Park()
	}
	leader, agreed := g.view.leader()
	// A replica that sees the cluster agreed on someone else sheds its own
	// queue before stepping. The polling watcher does the same once per
	// cadence, but wake-driven replicas can take many bursts between
	// watcher rounds, so the stale-queue window ("a demoted leader
	// re-proposes old writes after newer ones when it regains leadership")
	// must be closed at the replica itself: by the first step it takes
	// under another replica's reign, the stale queue is gone. (Put
	// re-submits the writes that still matter.)
	if agreed && leader != m.idx {
		m.store.DropPending()
	}
	// Lease housekeeping, before the burst so a fresh acquisition is
	// already the arming authority for it: the agreed leader extends its
	// grant while it holds, or (re)claims one the moment the previous
	// grant has expired. A demoted or crashed holder simply stops
	// extending and its grant lapses.
	holder := false
	var epoch uint64
	if g.lease != nil && agreed && leader == m.idx {
		if e, held := g.lease.Held(m.idx, now); held {
			holder, epoch = true, e
			g.lease.Extend(m.idx, now, g.leaseDur)
		} else if e, ok := g.lease.Acquire(m.idx, now, g.leaseDur, g.leaseEps); ok {
			holder, epoch = true, e
			m.acqGen = m.store.FenceGen()
			m.barrierDone = false
		}
	}
	newly, pending := m.store.StepBurst(now, g.burst)
	if holder && !m.barrierDone {
		// The catch-up barrier: once a proposal armed after the
		// acquisition wins its ballot, this replica provably holds (and
		// has applied) every command any earlier authority committed, and
		// the lease becomes readable. Any write traffic fences for free;
		// an idle store drives one no-op barrier slot through the log.
		if m.store.FencedSince(m.acqGen) {
			g.lease.MarkReadable(epoch, m.idx)
			m.barrierDone = true
		} else if pending == 0 && m.store.PendingLen() == 0 {
			if m.store.SubmitBarrier() != nil {
				m.barrierDone = true // barrier-less log: lease stays unreadable
			}
			return engine.Now()
		}
	}
	if newly > 0 {
		// Wake the other replicas to learn the new decisions — but only
		// from the commit's origin (the agreed leader, or anyone during
		// anarchy). A follower that merely learned entries would otherwise
		// re-notify all peers per wave, turning one commit into ~n²
		// notifications of already-informed machines.
		if !agreed || leader == m.idx {
			for i, id := range g.ids {
				if i != m.idx {
					g.notify(id)
				}
			}
		}
		// And any Put waiting for its command to land.
		g.onCommit()
		return engine.Now()
	}
	if pending > 0 {
		// A leader with queued work drains at CPU speed — unless the log
		// can make no progress: permanently full (checkpointing off), or
		// the recycling window is exhausted until a checkpoint gathers its
		// ack quorum, in which case stepping would only spin. The fallback
		// cadence re-checks the acks (the stepped replica reads them and
		// slides the window itself).
		if agreed && leader == m.idx && !m.store.LogFull() && !m.store.WindowFull() {
			return engine.Now()
		}
		return engine.At(now + g.poll)
	}
	// Idle. A leaseholder must not park: its grant needs extending well
	// before expiry or lease reads go dark between writes. An agreed
	// leader still waiting out a predecessor's grant polls for the expiry
	// at the fallback cadence. Everyone else parks until notified.
	if g.lease != nil && agreed && leader == m.idx {
		if holder {
			return engine.At(now + g.leaseDur/4)
		}
		return engine.At(now + g.poll)
	}
	return engine.Park()
}

// watch is the leadership watcher, a machine polling at the fallback
// cadence: when the agreed leader changes, the queues stranded on the
// other replicas are dropped and every replica is woken — the new leader
// may hold a queue a previous reign left behind, and parked followers may
// sit on unlearned slots the dead leader decided (nothing else would
// re-step them until the next write). Without the drop, a demoted-but-live
// leader would re-propose its stale queue whenever it regains leadership,
// committing old writes after newer ones; with it, a stale command can
// only still commit via ballot adoption in the first undecided slot —
// i.e. never after a newer command. (Writers that still care re-submit:
// every round also wakes the blocked callers, whose poll resubmits.)
func (g *replicaGroup) watch(now vclock.Time) engine.Hint {
	if l, ok := g.view.leader(); ok && l != g.lastLeader {
		for i, st := range g.stores {
			if i != l {
				st.DropPending()
			}
		}
		if g.lastLeader != -1 {
			g.changes++
		}
		g.lastLeader = l
		for _, id := range g.ids {
			g.notify(id)
		}
	}
	g.wakeWaiters()
	return engine.At(now + g.poll)
}

// readStore picks the replica to answer reads: the agreed leader's (it
// commits first, so it is the freshest), else the live replica with the
// longest committed prefix — during anarchy (typically right after a
// leader crash) the survivors lag the dead leader by whatever they have
// not yet learned, and the freshest one minimizes the staleness window
// until the next election catches everyone up.
func (g *replicaGroup) readStore() *consensus.KV {
	if l, ok := g.view.leader(); ok {
		return g.stores[l]
	}
	best := g.stores[0]
	bestLen := -1
	for i, s := range g.stores {
		if !g.view.crashed(i) {
			if n := s.CommittedLen(); n > bestLen {
				best, bestLen = s, n
			}
		}
	}
	return best
}

// putOp is one group write in flight: the deduplicated commands still
// waiting for commit and the reign it was last submitted under. start
// enters it in the group's waiter table, and the commit hook retires its
// commands as replicas apply them. poll never blocks; callers choose how
// to wait between polls (PutAll on the op's wake, the simulator's drivers
// on engine wakes).
type putOp struct {
	g *replicaGroup
	// remaining holds the commands still waiting for commit, in
	// submission order (resubmissions preserve it); guarded by g.waitMu.
	// Groups are small, so linear scans over it are cheaper than a map.
	remaining []uint32
	// wake is signalled when the commit hook completes the operation and
	// at the watcher's cadence while it waits (nil: never signalled).
	wake waiter
	// submittedTo and submitGen are the leader and its drop generation
	// at the last submission (-1: never submitted).
	submittedTo int
	submitGen   uint64
}

// start deduplicates entries and enters the operation in the waiter
// table before anything is submitted: only positions first applied from
// here on can acknowledge it, so an identical historical write never
// counts as its success. A reserved pair errors, committing nothing.
func (op *putOp) start(g *replicaGroup, entries []Entry) error {
	claimed := g.stores[0].ReservesTopRow()
	op.g, op.submittedTo, op.submitGen = g, -1, 0
	op.remaining = op.remaining[:0]
	for _, e := range entries {
		cmd := consensus.EncodeSet(e.Key, e.Val)
		if consensus.IsReserved(cmd, claimed) {
			return fmt.Errorf("omegasm: key/value pair (0x%04x, 0x%04x) is reserved", e.Key, e.Val)
		}
		if !slices.Contains(op.remaining, cmd) {
			op.remaining = append(op.remaining, cmd)
		}
	}
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	g.puts = append(g.puts, op)
	return nil
}

// withdraw removes an abandoned operation from the waiter table.
func (op *putOp) withdraw() {
	g := op.g
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	g.withdrawLocked(op)
}

func (g *replicaGroup) withdrawLocked(op *putOp) {
	if i := slices.Index(g.puts, op); i >= 0 {
		g.puts = slices.Delete(g.puts, i, i+1)
	}
}

// settled reports whether every command has committed.
func (op *putOp) settled() bool {
	op.g.waitMu.Lock()
	defer op.g.waitMu.Unlock()
	return len(op.remaining) == 0
}

// poll reports whether every command has committed and, under an agreed
// leader, submits the remainder again if leadership moved — or a
// leadership flap swept the leader's queue (its drop generation moved) —
// since the last submission, then wakes the leader. The error is
// ErrLogFull once a fixed-capacity log is exhausted, or a submission
// failure; either withdraws the operation.
func (op *putOp) poll() (bool, error) {
	g := op.g
	if op.settled() {
		return true, nil
	}
	if g.readStore().LogFull() {
		op.withdraw()
		return false, ErrLogFull
	}
	l, ok := g.view.leader()
	if !ok {
		return false, nil
	}
	if gen := g.stores[l].DropGeneration(); l != op.submittedTo || gen != op.submitGen {
		if err := op.submit(l); err != nil {
			return false, err
		}
		op.submittedTo, op.submitGen = l, gen
	}
	g.notify(g.ids[l])
	return op.settled(), nil
}

// submit queues the commands still waiting on replica l. It holds the
// table lock, so a command the hook retired a moment ago is not
// resubmitted (a needless duplicate burns log capacity forever).
func (op *putOp) submit(l int) error {
	g := op.g
	g.waitMu.Lock()
	defer g.waitMu.Unlock()
	if len(op.remaining) == 0 {
		return nil
	}
	if err := g.stores[l].SetAll(op.remaining...); err != nil {
		g.withdrawLocked(op)
		return err
	}
	if g.ackAtSubmit {
		op.remaining = op.remaining[:0]
		g.withdrawLocked(op)
	}
	return nil
}
