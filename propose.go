package omegasm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/vclock"
)

// arenaTag is the instance tag of the Propose arena's registers. Log
// slots use tags >= 0, so the arena's register names never collide with a
// KV's replicated log on the same shared memory.
const arenaTag = -1

// proposeArena is the cluster's lazily created one-shot consensus
// instance: one proposer per process, stepped by a machine of a live
// engine (one poll-cadence machine regardless of how many Propose calls
// are blocked), with Omega injecting liveness (only the process the
// oracle names leader advances ballots; safety never depends on the
// oracle). Blocked Propose callers sleep on the decision broadcast
// instead of driving the steps themselves.
type proposeArena struct {
	props []*consensus.Proposer
	eng   *engine.Live
	id    int // the arena machine's engine id
	done  *broadcast

	// waiters counts the Propose calls currently blocked; the arena
	// machine parks when it drops to zero (no caller, no stepping — as
	// when the old caller-driven loop lost its last driver).
	waiters atomic.Int64
	// result is the packed decision: 1<<32 | value once decided.
	result atomic.Uint64
}

// decided returns the arena's decision, if reached.
func (a *proposeArena) decided() (uint32, bool) {
	w := a.result.Load()
	return uint32(w), w>>32 != 0
}

// arena lazily builds and starts the cluster's propose arena with v as
// the fixed proposal.
func (c *Cluster) arenaFor(v uint32) (*proposeArena, error) {
	c.svcMu.Lock()
	defer c.svcMu.Unlock()
	if c.arena != nil {
		return c.arena, nil
	}
	if c.svcStopped {
		// A post-Stop Propose must not start an engine nobody will stop.
		return nil, fmt.Errorf("omegasm: propose: cluster is stopped")
	}
	a := &proposeArena{
		eng:  engine.NewLive(engine.LiveConfig{}),
		done: newBroadcast(),
	}
	inst := consensus.NewInstance(c.mem, c.N(), arenaTag)
	for i := 0; i < c.N(); i++ {
		p, err := consensus.NewProposer(inst, i, v, c.oracle(i))
		if err != nil {
			return nil, fmt.Errorf("omegasm: propose: %w", err)
		}
		a.props = append(a.props, p)
	}
	// The arena machine steps every live proposer once per cadence; there
	// is no external enqueue event to wake on (progress arrives with the
	// election's convergence), so this is a poll by nature — but it only
	// polls while a Propose call is blocked on it, and parks permanently
	// once the decision is published.
	interval := int64(c.stepInterval())
	a.id = a.eng.Add(engine.MachineFunc(func(now vclock.Time) engine.Hint {
		if a.waiters.Load() == 0 {
			return engine.Park() // no caller: the next Propose notifies us
		}
		for i, p := range a.props {
			if c.Crashed(i) {
				continue
			}
			p.Step(now)
			if val, ok := p.Decided(); ok {
				a.result.Store(1<<32 | uint64(val))
				a.done.signal()
				return engine.Park()
			}
		}
		return engine.At(now + interval)
	}))
	if err := a.eng.Start(); err != nil {
		return nil, err
	}
	c.arena = a
	return a, nil
}

// Propose runs one-shot consensus among the cluster's processes over the
// cluster's substrate and returns the decided value.
//
// The first call fixes the arena's proposal: every process proposes that
// value, so whichever process the Omega oracle stabilizes on drives it to
// decision (Disk Paxos over the cluster's registers; see
// internal/consensus). Later calls — concurrent or after the decision —
// join the same instance and return the already-decided value, which may
// differ from their argument; single-shot consensus decides once per
// cluster. v must not be 0xFFFFFFFF (the reserved no-value sentinel).
//
// Propose blocks until the decision is known or ctx is done. The cluster
// should be started: liveness needs the election to converge, though a
// decision can be reached during anarchy too (any majority-visible ballot
// completes).
func (c *Cluster) Propose(ctx context.Context, v uint32) (uint32, error) {
	if v == consensus.NoValue {
		return 0, fmt.Errorf("omegasm: propose: input %#x is the reserved NoValue sentinel", v)
	}
	a, err := c.arenaFor(v)
	if err != nil {
		return 0, err
	}
	// Register as a waiter and wake the (possibly parked) arena machine;
	// it keeps stepping only while someone is blocked here.
	a.waiters.Add(1)
	defer a.waiters.Add(-1)
	a.eng.Notify(a.id)
	// The fallback ticker guards the decided-during-wait race windows; the
	// broadcast is the fast path.
	ticker := time.NewTicker(c.stepInterval())
	defer ticker.Stop()
	for {
		ch := a.done.wait()
		if val, ok := a.decided(); ok {
			return val, nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("omegasm: propose: %w", ctx.Err())
		case <-ch:
		case <-ticker.C:
		}
	}
}

// stopServices tears down the service-layer engines the cluster started
// lazily (the propose arena) and refuses new ones; called by Stop.
func (c *Cluster) stopServices() {
	c.svcMu.Lock()
	c.svcStopped = true
	a := c.arena
	c.svcMu.Unlock()
	if a != nil {
		a.eng.Stop()
	}
}

// broadcast is a reusable close-channel broadcast: waiters grab the
// current channel and commit signals close it, waking every waiter at
// once (the shape of Put's commit watch). A signal with no waiter since
// the last reset is free: async writers (Set) commit at full rate
// without a channel allocation per commit wave.
type broadcast struct {
	mu     sync.Mutex
	ch     chan struct{}
	waited bool
}

func newBroadcast() *broadcast { return &broadcast{ch: make(chan struct{})} }

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waited = true
	return b.ch
}

func (b *broadcast) signal() {
	b.mu.Lock()
	if b.waited {
		close(b.ch)
		b.ch = make(chan struct{})
		b.waited = false
	}
	b.mu.Unlock()
}
