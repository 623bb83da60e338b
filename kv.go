package omegasm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/engine"
)

// ErrNoLeader is returned by KV.Set when the cluster's live processes do
// not currently agree on a live leader, so there is no replica to route
// the write to. Retry after WaitForAgreement, or use Put, which retries
// across anarchy periods itself.
var ErrNoLeader = errors.New("omegasm: no agreed leader")

// ErrLogFull is returned when a replicated log with checkpointing
// disabled (KVCheckpointEvery(0)) has decided every slot; the store keeps
// serving reads but accepts no further writes. Under default options the
// log checkpoints and recycles slots, so writes never return ErrLogFull.
var ErrLogFull = errors.New("omegasm: replicated log is full")

// ErrReadUnsupported is returned by Read in the linearizable modes
// (ReadLease, ReadQuorum) on a store whose log reserves no descriptor
// row: both modes fence through no-op barrier slots, which only batched
// or checkpointing logs can carry. Default-options stores checkpoint and
// support every mode; only KVCheckpointEvery(0) combined with KVBatch(1)
// hits this.
var ErrReadUnsupported = errors.New("omegasm: linearizable reads need batching or checkpointing enabled")

// ErrClosed is returned by Put, PutAll and the blocking Read modes once
// the store has been closed — including calls already waiting when Close
// runs, which it releases.
var ErrClosed = errors.New("omegasm: KV closed")

// ReadMode selects the consistency/latency point of a KV.Read.
type ReadMode int

const (
	// ReadFreshest answers from the freshest readable replica's applied
	// state without any coordination: sequential consistency (a committed
	// prefix, possibly stale), the same guarantee as Get. Never blocks.
	ReadFreshest ReadMode = iota
	// ReadLease answers linearizably from the lease holder's applied
	// state when a valid, barrier-complete lease exists — one clock check
	// and one atomic load, no consensus round. During anarchy, after
	// lease expiry, or with leases disabled it falls back to a ReadQuorum
	// round rather than give up linearizability.
	ReadLease
	// ReadQuorum answers linearizably by fencing through the log: it
	// waits for the leader to win a consensus slot armed after the read
	// began (committing a no-op barrier if the store is idle) and then
	// reads that replica. Always a full consensus round-trip.
	ReadQuorum
)

// KVOption configures NewKV.
type KVOption func(*kvSettings) error

// leaseAuto is the sentinel for "lease duration not chosen": NewKV
// enables leases with a default duration whenever the log can carry the
// catch-up barrier.
const leaseAuto = time.Duration(-1)

// defaultLeaseDur is the auto-enabled lease duration: long enough that
// the holder's refresh cadence (a quarter of it) is negligible work,
// short enough that a leader crash delays the next writer by at most a
// few election timeouts.
const defaultLeaseDur = 20 * time.Millisecond

type kvSettings struct {
	slots    int
	interval time.Duration
	burst    int
	batch    int
	ckpt     int
	lease    time.Duration
}

// KVSlots sets the replicated log's slot capacity (default 1024). Each
// slot pre-allocates one consensus instance (3 registers per process) on
// the cluster's substrate. With checkpointing on (the default) the slots
// form a recycling window and bound only the in-flight portion of the
// write stream; with KVCheckpointEvery(0) they are the store's total
// write capacity.
func KVSlots(n int) KVOption {
	return func(s *kvSettings) error {
		s.slots = n
		return nil
	}
}

// KVCheckpointEvery sets how many decided slots separate the leader's
// checkpoint proposals (default: a quarter of the slot count). Every
// checkpoint seals the log prefix into a snapshot of the store's state,
// published to immutable per-epoch register areas on the cluster's
// substrate; once a quorum of replicas has durably acknowledged passing
// it, the sealed slots are recycled and reused for new proposals — so
// the write stream is unbounded and Put/PutAll never return ErrLogFull.
// A replica that falls behind the recycled window (a restarted or long-
// parked laggard) installs the latest snapshot instead of replaying.
//
// KVCheckpointEvery(0) disables checkpointing: the log is a fixed array
// that fills permanently after KVSlots writes, exactly the pre-recycling
// behavior, and ErrLogFull returns. The price of checkpointing is the
// reserved key row 0xFFFF (checkpoint descriptors claim the top row of
// the command space, as batch descriptors do) and a cap of 16 processes;
// clusters above 16 processes fall back to checkpointing off unless a
// cadence is set explicitly. n must be below the slot count, so the
// checkpoint command itself always fits the window.
func KVCheckpointEvery(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 0 {
			return fmt.Errorf("omegasm: checkpoint interval must not be negative, got %d", n)
		}
		s.ckpt = n
		return nil
	}
}

// KVStepInterval sets the cadence of the store's replication driver
// (default: the cluster's step interval). Each tick advances every live
// replica by a burst of micro-steps.
func KVStepInterval(d time.Duration) KVOption {
	return func(s *kvSettings) error {
		if d <= 0 {
			return fmt.Errorf("omegasm: KV step interval must be positive, got %v", d)
		}
		s.interval = d
		return nil
	}
}

// KVStepBurst sets how many replica micro-steps each driver tick runs
// (default: 8 on the atomic substrate, 2 on the SAN). Paxos phases are
// micro-steps, so one slot commit needs several; the burst decouples
// commit rate from the host's timer resolution. On the SAN every step
// costs real quorum I/O, so keep the burst small there.
func KVStepBurst(n int) KVOption {
	return func(s *kvSettings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: KV step burst must be at least 1, got %d", n)
		}
		s.burst = n
		return nil
	}
}

// KVBatch sets how many queued writes one consensus slot may commit
// (default 1: batching off). With n > 1 the leader packs up to n pending
// commands into a single batch publication and runs one Disk-Paxos round
// on a 32-bit descriptor naming it, amortizing the consensus round — and
// its quorum I/O on the SAN — across the whole batch. The price is one
// reserved key: a batched log claims the key 0xFFFF row of the command
// space for descriptors, so Set/Put reject key 0xFFFF entirely (an
// unbatched store only rejects the (0xFFFF, 0xFFFF) pair). Batching also
// caps the cluster at 16 processes (descriptor pids are four bits).
func KVBatch(n int) KVOption {
	return func(s *kvSettings) error {
		s.batch = n
		return nil
	}
}

// KVLease sets the leader-lease duration behind ReadLease's local
// linearizable reads (default: 20ms whenever the log reserves the
// descriptor row — batching or checkpointing on — which default options
// do). The agreed leader claims the lease, commits one no-op barrier
// slot to prove its state covers every prior authority's commits, and
// then serves linearizable reads from its own applied state until the
// lease expires; it extends the lease while it leads. Every replica's
// proposer is gated on holding the lease, so commits never straddle two
// leases — the price is that after a leader crash the successor waits
// out the remainder of the dead leader's lease (at most d) before it can
// commit. KVLease(0) disables leases: ReadLease then degrades to quorum
// rounds, and proposers are gated only by the Omega oracle, the
// pre-lease behavior.
func KVLease(d time.Duration) KVOption {
	return func(s *kvSettings) error {
		if d < 0 {
			return fmt.Errorf("omegasm: lease duration must not be negative, got %v", d)
		}
		s.lease = d
		return nil
	}
}

// Entry is one key/value write of a PutAll or MultiPut call.
type Entry struct {
	// Key and Val form the command. Key 0xFFFF is reserved on batched
	// stores; the pair (0xFFFF, 0xFFFF) is reserved everywhere.
	Key, Val uint16
}

// KV is a replicated key-value store served by the cluster: the full
// Paxos-style stack the paper motivates, from the Omega oracle at the
// bottom through an Omega-driven Disk-Paxos replicated log to a
// converging store at the top — over whichever substrate the cluster was
// built on (atomic registers or the SAN).
//
// Writes route to the replica the oracle names leader and are committed
// by consensus, so a committed write survives any minority of process
// crashes (and, on the SAN, any minority of disk crashes) — including
// across log recycling: a checkpoint's snapshot is durably published on
// the substrate before the slots it seals can be reused, so every
// committed write is always reconstructible from either a live slot or
// the newest snapshot. After a leader crash the store resumes as soon as
// the survivors re-elect. Reads are served from the local applied state —
// sequential consistency, not linearizability.
//
// Under default options the log checkpoints (KVCheckpointEvery): the
// leader periodically seals the committed prefix into a published
// snapshot, a quorum acknowledges it, and the sealed slots recycle — so
// the write stream is unbounded and KVSlots bounds only the in-flight
// window. Disable with KVCheckpointEvery(0) to restore the fixed-capacity
// log and its ErrLogFull semantics.
//
// Replication is wake-driven: each replica is an engine machine that
// parks when idle, is woken the moment a write is enqueued for it (Put
// and Set notify the leader's machine), and keeps stepping back-to-back
// while work is draining, so commit latency is CPU-bound instead of
// poll-interval-bound and an idle store costs no stepping at all. The
// KVStepInterval cadence remains as the fallback poll for the cases no
// notification covers (a demoted replica waiting to drop or re-propose
// its queue).
type KV struct {
	*replicaGroup
	eng *engine.Live

	// closed is set by Close before it wakes the waiters: a waiter checks
	// it after entering the waiter table, so the wait cannot miss it.
	closed atomic.Bool
}

// putOpPool recycles PutAll's operations together with their wake
// channels and command scratch, so a steady-state Put allocates nothing.
var putOpPool = sync.Pool{New: func() any { return &putOp{wake: make(waiter, 1)} }}

// NewKV builds and starts the cluster's replicated key-value store: one
// replica per process over a freshly allocated log on the cluster's
// shared memory, each driven as a wake-hinted machine of a live engine.
// A cluster serves at most one KV in its lifetime (the log's register
// namespace is claimed permanently); a second call errors. Call Close to
// stop replication.
func NewKV(c *Cluster, opts ...KVOption) (*KV, error) {
	if c == nil {
		return nil, fmt.Errorf("omegasm: nil cluster")
	}
	set := &kvSettings{slots: 1024, interval: c.stepInterval(), burst: 8, batch: 1, ckpt: ckptAuto, lease: leaseAuto}
	if c.DiskCount() > 0 {
		set.burst = 2 // SAN steps cost quorum I/O; idle bursts are not free
	}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("omegasm: nil KVOption")
		}
		if err := o(set); err != nil {
			return nil, err
		}
	}
	shape := logShape{n: c.N(), slots: set.slots, batch: set.batch, ckpt: set.ckpt}
	if err := shape.resolve(); err != nil {
		return nil, err
	}
	// Auto-mode enables leases exactly when the log can carry the catch-up
	// barrier (the descriptor row is reserved).
	leaseDur := set.lease
	if leaseDur == leaseAuto {
		leaseDur = 0
		if shape.reservesTopRow() {
			leaseDur = defaultLeaseDur
		}
	}
	c.svcMu.Lock()
	if c.kvTaken {
		c.svcMu.Unlock()
		return nil, fmt.Errorf("omegasm: cluster already serves a KV store")
	}
	c.kvTaken = true
	c.svcMu.Unlock()

	kv := &KV{eng: engine.NewLive(engine.LiveConfig{})}
	g, err := newReplicaGroup(c.mem, groupParams{
		shape:    shape,
		leaseDur: int64(leaseDur),
		leaseEps: int64(leaseDur / 8),
		burst:    set.burst,
		poll:     int64(set.interval),
		view:     leaderView{agreed: c.AgreedLeader, crashed: c.Crashed},
		oracle:   c.oracle,
		notify:   kv.eng.Notify,
		onCommit: func() { kv.wakeFences() },
	})
	if err != nil {
		return nil, err
	}
	kv.replicaGroup = g
	for i := range g.stores {
		g.ids = append(g.ids, kv.eng.Add(g.replica(i)))
	}
	kv.eng.Add(engine.MachineFunc(g.watch))
	if err := kv.eng.Start(); err != nil {
		return nil, err
	}
	return kv, nil
}

// Close stops the replication engine. Reads keep answering from the
// frozen applied state; writes stop committing, and blocked or later
// Put, PutAll and linearizable Read calls return ErrClosed. Idempotent
// and safe to call concurrently.
func (kv *KV) Close() {
	kv.closed.Store(true)
	kv.wakeWaiters()
	kv.eng.Stop()
}

// Set queues one write on the current leader's replica and returns
// without waiting for commit — fire and forget. It errors with
// ErrNoLeader during anarchy periods (no agreed live leader to route to)
// and — only when checkpointing is disabled — ErrLogFull once the leader
// has learned every log slot decided; reserved pairs (see Entry) error
// synchronously. Set never retries: a
// nil return means the write was queued, not committed, and the write is
// silently lost if the leader crashes — or is merely demoted — before
// committing it, because a replica sheds its uncommitted queue the moment
// it observes another leader's reign. Set is the async fast path for
// workloads that tolerate loss and check progress via Applied; everything
// else should use Put or PutAll, which block until commit and retry
// across leadership changes.
func (kv *KV) Set(key, val uint16) error {
	l, ok := kv.view.leader()
	if !ok {
		return ErrNoLeader
	}
	if kv.stores[l].LogFull() {
		return ErrLogFull
	}
	if err := kv.stores[l].Set(key, val); err != nil {
		return err
	}
	kv.eng.Notify(kv.ids[l]) // wake the parked leader: the write drains now
	return nil
}

// Put replicates one write and returns once it is committed. It is
// PutAll with a single entry; see PutAll for the full retry and error
// semantics.
//
// Put is wake-driven end to end: the submit wakes the leader's parked
// replica machine immediately, and the call sleeps until the replica
// that applies its command wakes it, so the latency of an uncontended
// write is the consensus round itself, not the driver cadence. The
// leadership watcher's cadence only paces the retry path (leadership
// moved, log pressure).
func (kv *KV) Put(ctx context.Context, key, val uint16) error {
	return kv.PutAll(ctx, Entry{Key: key, Val: val})
}

// PutAll replicates a group of writes and returns once every one of them
// is committed. All entries are submitted to the current leader at once,
// so on a batched store (KVBatch) they are packed into as few consensus
// slots as the batch size allows — the group-commit fast path that
// amortizes one Disk-Paxos round across the group. Entries are committed
// in submission order when the group lands in one reign; duplicate
// entries are deduplicated (a Set is idempotent).
//
// The call enters its commands in the store's waiter table before
// submitting them, and the first replica to apply each later stream
// position retires the matching command (so an identical historical
// write never counts as this call's success). At the leadership
// watcher's cadence it resubmits the not-yet-committed remainder if
// leadership moved — or a leadership flap swept the leader's queue —
// before everything landed. Re-submission can commit an entry into more
// than one slot; the store applies sets idempotently, so duplicates only
// spend log capacity. PutAll returns ctx's error on cancellation,
// ErrClosed once the store is closed, the reserved-pair error
// synchronously (committing nothing), and — only when
// checkpointing is disabled — ErrLogFull if the fixed log fills before
// the whole group commits. With checkpointing (the default) the stream is
// unbounded: window backpressure paces the call, it never fails it.
func (kv *KV) PutAll(ctx context.Context, entries ...Entry) error {
	if len(entries) == 0 {
		return nil
	}
	op := putOpPool.Get().(*putOp)
	defer recyclePutOp(op)
	if err := op.start(kv.replicaGroup, entries); err != nil {
		return err
	}
	for {
		if kv.closed.Load() {
			return ErrClosed
		}
		if done, err := op.poll(); done || err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-op.wake:
		}
	}
}

// recyclePutOp withdraws a started op from the waiter table (a no-op once
// it completed) and returns it to the pool.
func recyclePutOp(op *putOp) {
	op.withdraw()
	op.wake.drain()
	op.g = nil
	putOpPool.Put(op)
}

// Get returns the value of key in the applied state of the freshest
// readable replica (the leader's when one is agreed). Reads are
// sequentially consistent: they reflect a committed prefix, possibly a
// slightly stale one. For linearizable reads use Read with ReadLease or
// ReadQuorum.
func (kv *KV) Get(key uint16) (uint16, bool) {
	return kv.readStore().Get(key)
}

// Read returns the value of key under the chosen consistency mode; see
// ReadMode for the modes' guarantees and costs. ReadFreshest never
// blocks or errors (ctx is unused). ReadLease answers in two atomic
// loads while a readable lease is valid and falls back to a quorum
// round otherwise; ReadQuorum always fences through the log. The
// blocking modes return ctx's error on cancellation, ErrClosed once the
// store is closed, and ErrReadUnsupported on stores without a
// descriptor row.
func (kv *KV) Read(ctx context.Context, key uint16, mode ReadMode) (uint16, bool, error) {
	switch mode {
	case ReadFreshest:
		v, ok := kv.readStore().Get(key)
		return v, ok, nil
	case ReadLease:
		if kv.lease != nil {
			if h, _, ok := kv.lease.ReadableHolder(kv.eng.Now()); ok {
				// The linearization point is the validity check itself: at
				// that instant the holder's applied state contains every
				// committed write (barrier + exclusive authority), and the
				// holder's state is monotone, so the value read just after
				// is at least as fresh. The holder may have crashed — its
				// frozen state is still complete, because nobody else can
				// commit while its grant is valid.
				v, ok := kv.stores[h].Get(key)
				return v, ok, nil
			}
		}
		// Anarchy, expiry, or leases off: preserve linearizability the
		// slow way rather than silently weaken the read.
		return kv.readQuorum(ctx, key)
	case ReadQuorum:
		return kv.readQuorum(ctx, key)
	}
	return 0, false, fmt.Errorf("omegasm: unknown read mode %d", mode)
}

// readQuorum is the linearizable slow path: wait until the agreed leader
// wins a consensus slot whose proposal was armed after this call began —
// proof it has learned and applied every write committed before the call
// — then answer from its state. Write traffic fences for free; on an
// idle store the call drives a no-op barrier slot through the log. A
// leadership change mid-call restarts the fence against the new leader.
func (kv *KV) readQuorum(ctx context.Context, key uint16) (uint16, bool, error) {
	if !kv.stores[0].ReservesTopRow() {
		return 0, false, ErrReadUnsupported
	}
	w := make(waiter, 1)
	kv.addFence(w)
	defer kv.removeFence(w)
	fencedFrom := -1 // leader the fence generation below was taken from
	var gen uint64
	for {
		// The waiter is registered before the check: progress (or Close)
		// that lands after it leaves a signal the wait below takes.
		if kv.closed.Load() {
			return 0, false, ErrClosed
		}
		if l, ok := kv.view.leader(); ok {
			if l != fencedFrom {
				fencedFrom, gen = l, kv.stores[l].FenceGen()
			}
			if kv.stores[l].FencedSince(gen) {
				v, ok := kv.stores[l].Get(key)
				return v, ok, nil
			}
			if kv.stores[l].PendingLen() == 0 {
				if err := kv.stores[l].SubmitBarrier(); err != nil {
					return 0, false, err
				}
			}
			kv.eng.Notify(kv.ids[l])
		}
		select {
		case <-ctx.Done():
			return 0, false, ctx.Err()
		case <-w:
		}
	}
}

// LeaseDuration returns the leader-lease duration behind ReadLease's
// local linearizable reads (0: leases disabled; see KVLease).
func (kv *KV) LeaseDuration() time.Duration {
	if kv.lease == nil {
		return 0
	}
	return time.Duration(kv.leaseDur)
}

// LeaseHolder returns the replica currently entitled to serve lease
// reads — the holder of a valid, barrier-complete grant — or ok=false
// when there is none (anarchy, expiry, barrier still in flight, or
// leases disabled). ReadLease serves locally exactly when ok.
func (kv *KV) LeaseHolder() (holder int, ok bool) {
	if kv.lease == nil {
		return -1, false
	}
	h, _, ok := kv.lease.ReadableHolder(kv.eng.Now())
	return h, ok
}

// Len returns the number of keys in the applied state.
func (kv *KV) Len() int { return kv.readStore().Len() }

// Applied returns how many log entries the reading replica has applied.
func (kv *KV) Applied() int { return kv.readStore().Applied() }

// Snapshot returns a copy of the applied state.
func (kv *KV) Snapshot() map[uint16]uint16 { return kv.readStore().Snapshot() }

// Capacity returns the slot count of the replicated log's window. With
// checkpointing on (the default) this bounds only the in-flight portion
// of the stream — total write capacity is unbounded; with
// KVCheckpointEvery(0) it is the store's total capacity. On a batched
// store one slot commits up to BatchSize writes.
func (kv *KV) Capacity() int { return kv.stores[0].Capacity() }

// SlotsUsed returns how many consensus slots the reading replica has
// passed; on a checkpointing store it grows past Capacity as slots
// recycle. On a batched store this lags Applied by the batching factor —
// the ratio Applied()/SlotsUsed() is the measured average batch size.
func (kv *KV) SlotsUsed() int { return kv.readStore().SlotsDecided() }

// Batched reports whether the store packs multi-command batches into
// consensus slots (KVBatch with a size above 1).
func (kv *KV) Batched() bool { return kv.stores[0].Batched() }

// BatchSize returns how many queued writes one consensus slot may commit
// (1: batching off).
func (kv *KV) BatchSize() int { return kv.stores[0].MaxBatch() }

// CheckpointEvery returns how many decided slots separate checkpoint
// seals (0: checkpointing off, the log fills permanently).
func (kv *KV) CheckpointEvery() int { return kv.stores[0].CheckpointEvery() }

// Checkpoints returns how many checkpoints the reading replica has
// passed — the number of times a log prefix was sealed into a snapshot
// and its slots recycled.
func (kv *KV) Checkpoints() int { return kv.readStore().Checkpoints() }
