package consensus

import (
	"math/rand"
	"reflect"
	"testing"

	"omegasm/internal/shmem"
)

// newCkptKVs builds n KV replicas over one checkpointing log.
func newCkptKVs(t *testing.T, n, slots, maxBatch, every int, omega func(i int) func() int) []*KV {
	t.Helper()
	mem := shmem.NewSimMem(n)
	log, err := NewCheckpointLog(mem, n, slots, maxBatch, every)
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]*KV, n)
	for i := 0; i < n; i++ {
		r, err := NewReplica(log, i, omega(i))
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	return kvs
}

func TestNewCheckpointLogValidation(t *testing.T) {
	mem := shmem.NewSimMem(2)
	if _, err := NewCheckpointLog(mem, 2, 8, 1, -1); err == nil {
		t.Error("negative checkpoint interval accepted")
	}
	if _, err := NewCheckpointLog(mem, 2, 8, 1, 8); err == nil {
		t.Error("interval equal to the window accepted")
	}
	if _, err := NewCheckpointLog(shmem.NewSimMem(17), 17, 8, 1, 2); err == nil {
		t.Error("17 processes accepted on a checkpointing log")
	}
	l, err := NewCheckpointLog(mem, 2, 8, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Recycling() || l.CheckpointEvery() != 2 || !l.ReservesTopRow() || l.Batched() {
		t.Fatal("accessors disagree with construction")
	}
	if IsReserved(EncodeSet(0xFFFF, 1), l.ReservesTopRow()) != true {
		t.Fatal("checkpointing log must reserve the 0xFFFF key row")
	}
}

// TestCheckpointUnboundedStream is the core recycling property: a stream
// 10x the slot capacity commits through a tiny window, with checkpoints
// sealing and recycling slots along the way, and every replica's state
// converges on the last-write-wins map.
func TestCheckpointUnboundedStream(t *testing.T) {
	const (
		slots  = 16
		every  = 4
		writes = 160 // 10x the window
	)
	kvs := newCkptKVs(t, 3, slots, 1, every, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 0; k < writes; k++ {
		if err := kvs[0].Set(uint16(k%10), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 4_000_000; s++ {
		kvs[rng.Intn(3)].Step(0)
		if kvs[0].Applied() >= writes && kvs[1].Applied() >= writes && kvs[2].Applied() >= writes {
			break
		}
	}
	want := map[uint16]uint16{}
	for k := 0; k < writes; k++ {
		want[uint16(k%10)] = uint16(k)
	}
	for i, kv := range kvs {
		if kv.Applied() < writes {
			t.Fatalf("replica %d applied only %d of %d (slots decided %d)",
				i, kv.Applied(), writes, kv.SlotsDecided())
		}
		if got := kv.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d state %v, want %v", i, got, want)
		}
		if kv.LogFull() {
			t.Fatalf("replica %d reports LogFull on a recycling log", i)
		}
		if kv.SlotsDecided() <= slots {
			t.Fatalf("replica %d decided only %d slots; recycling never engaged", i, kv.SlotsDecided())
		}
		if kv.Checkpoints() < 3 {
			t.Fatalf("replica %d passed only %d checkpoints", i, kv.Checkpoints())
		}
	}
}

// TestCheckpointBatchedStream runs the same unbounded stream over a
// batched log: batch descriptors and checkpoint descriptors share the
// reserved row and must coexist across many recycles.
func TestCheckpointBatchedStream(t *testing.T) {
	const (
		slots  = 8
		every  = 3
		writes = 320
	)
	kvs := newCkptKVs(t, 3, slots, 8, every, func(i int) func() int {
		return func() int { return 0 }
	})
	var cmds []uint32
	for k := 0; k < writes; k++ {
		cmds = append(cmds, EncodeSet(uint16(k%13), uint16(k)))
	}
	if err := kvs[0].SetAll(cmds...); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 6_000_000; s++ {
		kvs[rng.Intn(3)].Step(0)
		if kvs[0].Applied() >= writes && kvs[1].Applied() >= writes && kvs[2].Applied() >= writes {
			break
		}
	}
	want := kvs[0].Snapshot()
	if kvs[0].Applied() < writes {
		t.Fatalf("leader applied only %d of %d", kvs[0].Applied(), writes)
	}
	for k := 0; k < 13; k++ {
		last := writes - 1 - (writes-1-k)%13 // the last write of key k
		if v := want[uint16(k)]; v != uint16(last) {
			t.Fatalf("key %d = %d, want %d", k, v, last)
		}
	}
	for i := 1; i < 3; i++ {
		if got := kvs[i].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d diverged", i)
		}
	}
	if kvs[0].SlotsDecided() >= writes {
		t.Fatal("batching never engaged under checkpointing")
	}
}

// TestCheckpointCrashBetweenSealAndAck is the crash-during-checkpoint
// recovery scenario: the leader seals (its checkpoint command decides and
// it learns it) and then dies before any other replica has learned —
// let alone acknowledged — the checkpoint. The survivors must learn the
// seal from the decision registers, gather the ack quorum among
// themselves, recycle, and keep committing.
func TestCheckpointCrashBetweenSealAndAck(t *testing.T) {
	const (
		slots = 8
		every = 2
	)
	leader := 0
	omega := func(i int) func() int { return func() int { return leader } }
	kvs := newCkptKVs(t, 3, slots, 1, every, omega)
	// Drive only the leader until it has passed its first checkpoint: the
	// followers have learned nothing, so no ack but the leader's exists.
	for k := 0; k < 4; k++ {
		if err := kvs[0].Set(uint16(k), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < 100_000 && kvs[0].Checkpoints() == 0; s++ {
		kvs[0].Step(0)
	}
	if kvs[0].Checkpoints() == 0 {
		t.Fatal("leader never sealed")
	}
	if kvs[1].Checkpoints() != 0 || kvs[2].Checkpoints() != 0 {
		t.Fatal("test premise broken: a follower already passed the checkpoint")
	}
	// The leader crashes: it is never stepped again, and the oracle moves.
	leader = 1
	// Survivor 1 inherits the workload and must push the stream well past
	// the original window, which requires recycling — and recycling
	// requires the survivors to ack the dead leader's checkpoint and every
	// one they seal themselves.
	const writes = 40 // 5x the window
	for k := 0; k < writes; k++ {
		if err := kvs[1].Set(uint16(100+k%10), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 2_000_000; s++ {
		kvs[1+rng.Intn(2)].Step(0)
		if kvs[1].PendingLen() == 0 && kvs[2].Applied() >= kvs[1].Applied() && kvs[1].Applied() >= writes {
			break
		}
	}
	if kvs[1].PendingLen() != 0 {
		t.Fatalf("survivors wedged: %d writes still pending after the leader died mid-checkpoint (slots decided %d)",
			kvs[1].PendingLen(), kvs[1].SlotsDecided())
	}
	for i := 1; i < 3; i++ {
		if v, ok := kvs[i].Get(100 + uint16(writes-1)%10); !ok || v != uint16(writes-1) {
			t.Fatalf("survivor %d missing the final write: (%d, %v)", i, v, ok)
		}
		if v, ok := kvs[i].Get(0); !ok || v != 0 {
			t.Fatalf("survivor %d lost a pre-crash committed write: (%d, %v)", i, v, ok)
		}
	}
}

// TestSnapshotInstallOnLaggingReplica: a replica that stops stepping
// while the others stream far past the window cannot replay the recycled
// slots; it must install the newest published snapshot and resume from
// the seal point with the exact state.
func TestSnapshotInstallOnLaggingReplica(t *testing.T) {
	const (
		slots  = 8
		every  = 2
		writes = 64
	)
	kvs := newCkptKVs(t, 3, slots, 1, every, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 0; k < writes; k++ {
		if err := kvs[0].Set(uint16(k%5), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Only replicas 0 and 1 run (a majority: acks gather, slots recycle).
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 2_000_000; s++ {
		kvs[rng.Intn(2)].Step(0)
		if kvs[0].Applied() >= writes && kvs[1].Applied() >= writes {
			break
		}
	}
	if kvs[0].Applied() < writes {
		t.Fatalf("stream stalled at %d of %d", kvs[0].Applied(), writes)
	}
	if kvs[2].SlotsDecided() != 0 {
		t.Fatal("test premise broken: the lagging replica stepped")
	}
	// The laggard wakes up: its slot 0 is long recycled.
	for s := 0; s < 100_000 && kvs[2].Applied() < kvs[0].CommittedLen(); s++ {
		kvs[2].Step(0)
	}
	if kvs[2].SnapshotInstalls() == 0 {
		t.Fatal("lagging replica never installed a snapshot")
	}
	if got, want := kvs[2].Snapshot(), kvs[0].Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("installed state %v diverged from leader state %v", got, want)
	}
}

// TestRestartedReplicaInstallsSnapshot models a process restart: a brand
// new Replica (fresh local state, same id and shared log) joins after the
// stream has recycled its early slots, and must catch up via snapshot
// install rather than replay.
func TestRestartedReplicaInstallsSnapshot(t *testing.T) {
	const (
		slots  = 8
		every  = 2
		writes = 48
	)
	mem := shmem.NewSimMem(3)
	log, err := NewCheckpointLog(mem, 3, slots, 1, every)
	if err != nil {
		t.Fatal(err)
	}
	omega := func() int { return 0 }
	kvs := make([]*KV, 3)
	for i := 0; i < 3; i++ {
		r, err := NewReplica(log, i, omega)
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < writes; k++ {
		if err := kvs[0].Set(uint16(k%5), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for s := 0; s < 2_000_000; s++ {
		kvs[rng.Intn(2)].Step(0)
		if kvs[0].Applied() >= writes && kvs[1].Applied() >= writes {
			break
		}
	}
	if kvs[0].Applied() < writes {
		t.Fatalf("stream stalled at %d of %d", kvs[0].Applied(), writes)
	}
	// "Restart" replica 2: a fresh replica object over the same log — all
	// local learning state lost, shared registers intact.
	r2, err := NewReplica(log, 2, omega)
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := NewKV(r2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 100_000 && restarted.Applied() < kvs[0].CommittedLen(); s++ {
		restarted.Step(0)
	}
	if restarted.SnapshotInstalls() == 0 {
		t.Fatal("restarted replica never installed a snapshot")
	}
	if got, want := restarted.Snapshot(), kvs[0].Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted state %v diverged from leader state %v", got, want)
	}
}

// TestCheckpointDisabledKeepsLogFull is the regression gate: with
// checkpointing off the log is exactly the old fixed array — it fills,
// LogFull reports it, and further steps are no-ops.
func TestCheckpointDisabledKeepsLogFull(t *testing.T) {
	kvs := newCkptKVs(t, 2, 4, 1, 0, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 0; k < 10; k++ {
		if err := kvs[0].Set(uint16(k), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for s := 0; s < 200_000 && !kvs[0].LogFull(); s++ {
		kvs[rng.Intn(2)].Step(0)
	}
	if !kvs[0].LogFull() {
		t.Fatal("non-recycling log never filled")
	}
	if kvs[0].Applied() != 4 {
		t.Fatalf("applied %d, want exactly the 4 slots available", kvs[0].Applied())
	}
	if kvs[0].Checkpoints() != 0 || kvs[0].WindowFull() {
		t.Fatal("checkpoint machinery engaged on a non-recycling log")
	}
	kvs[0].Step(0) // full log: no-op, no panic
}

// TestCheckpointPrefixAgreementUnderChurn: concurrently proposing
// replicas (self-proclaimed leaders) interleaving checkpoint and data
// proposals must keep the applied states convergent at equal applied
// counts, across many recycles, for every seed.
func TestCheckpointPrefixAgreementUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		kvs := newCkptKVs(t, 3, 8, 1, 2, func(i int) func() int {
			return func() int { return i }
		})
		for i, kv := range kvs {
			for k := 0; k < 20; k++ {
				if err := kv.Set(uint16(i*100+k%7), uint16(k)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 400_000; s++ {
			kvs[rng.Intn(3)].Step(0)
		}
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if kvs[i].Applied() == kvs[j].Applied() {
					if !reflect.DeepEqual(kvs[i].Snapshot(), kvs[j].Snapshot()) {
						t.Fatalf("seed %d: replicas %d and %d diverged at applied=%d",
							seed, i, j, kvs[i].Applied())
					}
				}
			}
		}
	}
}
