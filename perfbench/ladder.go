package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/engine"
	"omegasm/internal/lease"
	"omegasm/internal/rt"
	"omegasm/internal/san"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// The layer ladder is measurement scaffolding, never a product path: it
// assembles the public store's stack from the exported constructors with
// the public store's parameters — register memory behind a counting
// wrapper, Algorithm 1 under the live runtime behind a timing wrapper,
// the checkpointing Disk Paxos log with one KV replica per process, and
// one live engine driving the replicas — so each layer's cost can be
// timed and counted at its boundary. Its replica machine repeats the
// public KV machine's stepping policy (kv.go: kvMachine) so the stack
// takes the same code paths; the public KV adds its own Put/PutAll
// bookkeeping on top, which is what kv.put_self_us measures.

// Span names of the ladder.
const (
	spanLadderPut = "ladder.put"
	spanSubmit    = "consensus.submit"
	spanWake      = "engine.wake"
	spanStep      = "consensus.step"
	spanApply     = "consensus.apply"
	spanCoreStep  = "core.step"
)

// The public store's defaults the ladder repeats (kv.go, options.go).
const (
	ladderN        = 3
	ladderSlots    = 1024
	ladderLeaseDur = 20 * time.Millisecond
	// traceEvery: one request in traceEvery is traced span by span.
	traceEvery = 32
	// coreSpanEvery: one election step in coreSpanEvery gets a span.
	coreSpanEvery = 16
)

// Register classes by layer.
var (
	electionClasses  = []string{core.ClassSuspicions, core.ClassProgress, core.ClassStop, core.ClassLast}
	consensusClasses = []string{consensus.ClassMBal, consensus.ClassBalInp, consensus.ClassDec,
		consensus.ClassBatchHdr, consensus.ClassBatchData, consensus.ClassSnapHdr, consensus.ClassSnapMeta,
		consensus.ClassSnapData, consensus.ClassCkptAck, consensus.ClassCkptPtr}
)

// timedProc times each election step of one process.
type timedProc struct {
	rt.Proc
	rec   *recorder
	ns    atomic.Int64
	steps atomic.Int64
}

func (p *timedProc) Step(now vclock.Time) {
	t0 := p.rec.now()
	p.Proc.Step(now)
	t1 := p.rec.now()
	p.ns.Add(t1 - t0)
	if p.steps.Add(1)%coreSpanEvery == 0 {
		p.rec.add(spanCoreStep, t0, t1, -1, -1)
	}
}

// ladderWait tracks the one outstanding Put of a key (the key model
// allows a single writer per key).
type ladderWait struct {
	want    atomic.Uint32 // val+1 of the tracked Put, 0: none
	first   atomic.Int64  // first apply anywhere (recorder ns)
	applied [ladderN]atomic.Int64
	ch      chan struct{}
}

type ladderConfig struct {
	san   bool
	batch int
	keys  int
}

// ladder is the assembled reference stack.
type ladder struct {
	rec      *recorder
	mem      *countMem
	disks    []*san.Disk
	procs    []*timedProc
	run      *rt.Runtime
	stores   []*consensus.KV
	machines []*ladderMachine
	eng      *engine.Live
	ids      []int
	lease    *lease.Register
	leaseDur int64
	leaseEps int64
	interval time.Duration

	waits   []ladderWait
	reqs    atomic.Int64
	tracing atomic.Int64 // traced requests in flight

	mu     sync.Mutex
	lat    []time.Duration // submit -> ack
	commit []time.Duration // submit -> first apply
	lags   []time.Duration // first -> last replica apply
	// moved is closed and replaced whenever the agreed leader changes.
	moved   atomic.Pointer[chan struct{}]
	stepsNs atomic.Int64
	steps   atomic.Int64
}

// ladderMachine drives one replica like the public KV's machine.
type ladderMachine struct {
	l           *ladder
	idx         int
	store       *consensus.KV
	burst       int
	acqGen      uint64
	barrierDone bool

	wakeMu   sync.Mutex
	wakeFrom int64 // earliest unserved notify (recorder ns), 0: none
	wakeReq  int64
	wakes    []time.Duration
}

func newLadder(cfg ladderConfig, rec *recorder) (*ladder, error) {
	l := &ladder{rec: rec, waits: make([]ladderWait, cfg.keys)}
	moved := make(chan struct{})
	l.moved.Store(&moved)
	for i := range l.waits {
		l.waits[i].ch = make(chan struct{}, 1)
	}
	stepInterval, timerUnit, burst := engine.DefaultStepInterval, engine.DefaultTimerUnit, 8
	var inner shmem.Mem = shmem.NewAtomicMem(ladderN, false)
	if cfg.san {
		stepInterval, timerUnit, burst = engine.DefaultSANStepInterval, engine.DefaultSANTimerUnit, 2
		for d := 0; d < 3; d++ {
			l.disks = append(l.disks, san.NewDisk(san.Latency{}, int64(d)+1))
		}
		dm, err := san.NewUncountedDiskMem(ladderN, l.disks)
		if err != nil {
			return nil, err
		}
		inner = dm
	}
	l.interval = stepInterval
	l.mem = newCountMem(inner)
	procs := make([]rt.Proc, ladderN)
	for i, p := range core.BuildAlgo1(l.mem, ladderN) {
		tp := &timedProc{Proc: p, rec: rec}
		l.procs = append(l.procs, tp)
		procs[i] = tp
	}
	run, err := rt.New(rt.Config{StepInterval: stepInterval, TimerUnit: timerUnit}, procs)
	if err != nil {
		return nil, err
	}
	l.run = run
	log, err := consensus.NewCheckpointLog(l.mem, ladderN, ladderSlots, cfg.batch,
		consensus.DefaultCheckpointEvery(ladderSlots, ladderN))
	if err != nil {
		return nil, err
	}
	if log.ReservesTopRow() {
		l.lease = &lease.Register{}
		l.leaseDur = int64(ladderLeaseDur)
		l.leaseEps = int64(ladderLeaseDur / 8)
	}
	l.eng = engine.NewLive(engine.LiveConfig{})
	for i := 0; i < ladderN; i++ {
		id := i
		replica, err := consensus.NewReplica(log, i, func() int {
			ld, err := run.Leader(id)
			if err != nil {
				return -1
			}
			return ld
		})
		if err != nil {
			return nil, err
		}
		store, err := consensus.NewKV(replica)
		if err != nil {
			return nil, err
		}
		if l.lease != nil {
			reg := l.lease
			store.SetAuthority(func(t vclock.Time) bool {
				_, held := reg.Held(id, t)
				return held
			})
		}
		store.SetApplyObserver(l.observer(i))
		l.stores = append(l.stores, store)
	}
	for i, st := range l.stores {
		m := &ladderMachine{l: l, idx: i, store: st, burst: burst}
		l.machines = append(l.machines, m)
		l.ids = append(l.ids, l.eng.Add(m))
	}
	lastLeader := -1
	l.eng.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		if ld, ok := run.AgreedLeader(); ok && ld >= 0 && ld != lastLeader {
			for i, st := range l.stores {
				if i != ld {
					st.DropPending()
				}
			}
			lastLeader = ld
			for _, id := range l.ids {
				l.eng.Notify(id)
			}
			next := make(chan struct{})
			close(*l.moved.Swap(&next))
		}
		return engine.At(now + int64(stepInterval))
	}))
	if err := run.Start(); err != nil {
		return nil, err
	}
	if err := l.eng.Start(); err != nil {
		run.Stop()
		return nil, err
	}
	if _, ok := run.WaitForAgreement(30 * time.Second); !ok {
		l.close()
		return nil, fmt.Errorf("ladder: no agreed leader")
	}
	return l, nil
}

func (l *ladder) close() {
	l.eng.Stop()
	l.run.Stop()
	for _, d := range l.disks {
		d.Close()
	}
}

// observer records when replica i applies a tracked Put's command.
func (l *ladder) observer(i int) func(pos int, cmd uint32) {
	return func(pos int, cmd uint32) {
		k, v := consensus.DecodeSet(cmd)
		if int(k) >= len(l.waits) {
			return // barrier, batch or checkpoint descriptor
		}
		w := &l.waits[k]
		if w.want.Load() != uint32(v)+1 {
			return
		}
		t := l.rec.now()
		w.applied[i].CompareAndSwap(0, t)
		if w.first.CompareAndSwap(0, t) {
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
}

// Step implements engine.Machine with the public KV machine's policy.
func (m *ladderMachine) Step(now vclock.Time) engine.Hint {
	l := m.l
	t0 := l.rec.now()
	m.wakeMu.Lock()
	from, req := m.wakeFrom, m.wakeReq
	m.wakeFrom = 0
	m.wakeMu.Unlock()
	if from != 0 {
		m.wakes = append(m.wakes, time.Duration(t0-from))
		if req >= 0 {
			l.rec.add(spanWake, from, t0, -1, req)
		}
	}
	leader, agreed := l.run.AgreedLeader()
	agreed = agreed && leader >= 0
	if agreed && leader != m.idx {
		m.store.DropPending()
	}
	holder := false
	var epoch uint64
	if l.lease != nil && agreed && leader == m.idx {
		if e, held := l.lease.Held(m.idx, now); held {
			holder, epoch = true, e
			l.lease.Extend(m.idx, now, l.leaseDur)
		} else if e, ok := l.lease.Acquire(m.idx, now, l.leaseDur, l.leaseEps); ok {
			holder, epoch = true, e
			m.acqGen = m.store.FenceGen()
			m.barrierDone = false
		}
	}
	s0 := l.rec.now()
	newly, pending := m.store.StepBurst(now, m.burst)
	s1 := l.rec.now()
	l.stepsNs.Add(s1 - s0)
	l.steps.Add(1)
	if l.tracing.Load() > 0 {
		l.rec.add(spanStep, s0, s1, -1, -1)
	}
	if holder && !m.barrierDone {
		if m.store.FencedSince(m.acqGen) {
			l.lease.MarkReadable(epoch, m.idx)
			m.barrierDone = true
		} else if pending == 0 && m.store.PendingLen() == 0 {
			if m.store.SubmitBarrier() != nil {
				m.barrierDone = true
			}
			return engine.Now()
		}
	}
	if newly > 0 {
		if !agreed || leader == m.idx {
			for i, id := range l.ids {
				if i != m.idx {
					l.eng.Notify(id)
				}
			}
		}
		return engine.Now()
	}
	if pending > 0 {
		if agreed && leader == m.idx && !m.store.LogFull() && !m.store.WindowFull() {
			return engine.Now()
		}
		return engine.At(now + int64(l.interval))
	}
	if l.lease != nil && agreed && leader == m.idx {
		if holder {
			return engine.At(now + l.leaseDur/4)
		}
		return engine.At(now + int64(l.interval))
	}
	return engine.Park()
}

// notify wakes the replica machine, remembering when (and for which
// traced request) the first unserved notification was sent.
func (l *ladder) notify(i int, t, req int64) {
	m := l.machines[i]
	m.wakeMu.Lock()
	if m.wakeFrom == 0 {
		m.wakeFrom, m.wakeReq = t, req
	}
	m.wakeMu.Unlock()
	l.eng.Notify(l.ids[i])
}

// collectLag records the apply spread of key's last tracked Put.
func (l *ladder) collectLag(w *ladderWait) {
	lo, hi := int64(0), int64(0)
	for i := range w.applied {
		t := w.applied[i].Load()
		if t == 0 {
			return // not applied everywhere (yet)
		}
		if lo == 0 || t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	l.mu.Lock()
	l.lags = append(l.lags, time.Duration(hi-lo))
	l.mu.Unlock()
}

// put submits one write to the agreed leader's replica and waits until a
// replica applies it: the ladder's submit -> ack. It has KV.Put's
// signature so the workloads' drivers can run it unchanged.
func (l *ladder) put(ctx context.Context, key, val uint16) error {
	w := &l.waits[key]
	if w.want.Load() != 0 {
		l.collectLag(w)
	}
	for i := range w.applied {
		w.applied[i].Store(0)
	}
	w.first.Store(0)
	select {
	case <-w.ch:
	default:
	}
	w.want.Store(uint32(val) + 1)
	id := l.reqs.Add(1)
	req := int64(-1)
	if id%traceEvery == 0 {
		req = id
		l.tracing.Add(1)
		defer l.tracing.Add(-1)
	}
	t0 := l.rec.now()
	moved := l.moved.Load()
	leader, err := l.submit(ctx, key, val)
	if err != nil {
		return err
	}
	t1 := l.rec.now()
	l.notify(leader, t1, req)
	for done := false; !done; {
		select {
		case <-w.ch:
			done = true
		case <-ctx.Done():
			return ctx.Err()
		case <-*moved:
			// Leadership moved and swept the queue: submit again.
			moved = l.moved.Load()
			if leader, err = l.submit(ctx, key, val); err != nil {
				return err
			}
			l.notify(leader, l.rec.now(), -1)
		}
	}
	t2 := l.rec.now()
	first := w.first.Load()
	l.mu.Lock()
	l.lat = append(l.lat, time.Duration(t2-t0))
	l.commit = append(l.commit, time.Duration(first-t0))
	l.mu.Unlock()
	if req >= 0 {
		root := l.rec.add(spanLadderPut, t0, t2, -1, req)
		l.rec.add(spanSubmit, t0, t1, root, req)
		l.rec.add(spanApply, first, first, root, req)
	}
	return nil
}

// submit queues the write on the agreed leader's replica.
func (l *ladder) submit(ctx context.Context, key, val uint16) (int, error) {
	for {
		if ld, ok := l.run.AgreedLeader(); ok && ld >= 0 {
			return ld, l.stores[ld].Set(key, val)
		}
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
}

// ladderCounts is a snapshot of the ladder's counters.
type ladderCounts struct {
	regs                             classTotals
	decided                          int
	steps, stepNs, coreSteps, coreNs int64
}

func (l *ladder) counts() ladderCounts {
	c := ladderCounts{regs: l.mem.totals(), steps: l.steps.Load(), stepNs: l.stepsNs.Load()}
	for _, st := range l.stores {
		if d := st.SlotsDecided(); d > c.decided {
			c.decided = d
		}
	}
	for _, p := range l.procs {
		c.coreSteps += p.steps.Load()
		c.coreNs += p.ns.Load()
	}
	return c
}
