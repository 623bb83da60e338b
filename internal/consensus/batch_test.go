package consensus

import (
	"math/rand"
	"reflect"
	"testing"

	"omegasm/internal/shmem"
)

func newBatchReplicas(t *testing.T, n, slots, maxBatch int, omega func(i int) func() int) []*Replica {
	t.Helper()
	mem := shmem.NewSimMem(n)
	log, err := NewBatchLog(mem, n, slots, maxBatch)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		r, err := NewReplica(log, i, omega(i))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	return reps
}

func TestBatchDescEncoding(t *testing.T) {
	// Batch coordinates: the full 12-bit space on a plain batched log
	// (historical cap 4094), the bit-11-clear half on a checkpointing one.
	for _, c := range []struct{ pid, seq int }{{0, 0}, {3, 17}, {15, batchSeqCapCkpt - 1}, {15, batchSeqCapPlain - 1}} {
		desc := encodeBatchDesc(c.pid, c.seq)
		if !isDesc(desc) {
			t.Fatalf("batch descriptor (%d,%d) not recognized", c.pid, c.seq)
		}
		if c.seq < batchSeqCapCkpt && isCkptDesc(desc) {
			t.Fatalf("checkpointing-log batch descriptor (%d,%d) classified as checkpoint", c.pid, c.seq)
		}
		pid, seq := decodeBatchDesc(desc)
		if pid != c.pid || seq != c.seq {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.pid, c.seq, pid, seq)
		}
	}
	for _, c := range []struct{ pid, seq int }{{0, 0}, {7, 99}, {15, ckptSeqCap - 1}} {
		desc := encodeCkptDesc(c.pid, c.seq)
		if !isDesc(desc) || !isCkptDesc(desc) {
			t.Fatalf("checkpoint descriptor (%d,%d) not recognized", c.pid, c.seq)
		}
		pid, seq := decodeCkptDesc(desc)
		if pid != c.pid || seq != c.seq {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.pid, c.seq, pid, seq)
		}
	}
	// The sequence caps keep every reachable descriptor distinct from
	// NoValue: the colliding coordinates are out of range by construction.
	if encodeCkptDesc(15, 0x7FF) != NoValue {
		t.Fatal("expected checkpoint (15, 0x7FF) to collide with NoValue; the cap comment is stale")
	}
	if encodeBatchDesc(15, 0xFFF) != NoValue {
		t.Fatal("expected batch (15, 0xFFF) to collide with NoValue; the cap comment is stale")
	}
	if ckptSeqCap > 0x7FF || batchSeqCapPlain > 0xFFF || batchSeqCapCkpt > 0x7FF {
		t.Fatal("sequence caps reach the NoValue coordinates")
	}
	if IsReserved(EncodeSet(0xFFFF, 1), true) != true {
		t.Fatal("key 0xFFFF must be reserved when the descriptor row is claimed")
	}
	if IsReserved(EncodeSet(0xFFFF, 1), false) != false {
		t.Fatal("key 0xFFFF must stay usable on a plain log")
	}
}

func TestNewBatchLogValidation(t *testing.T) {
	mem := shmem.NewSimMem(2)
	if _, err := NewBatchLog(mem, 2, 4, 0); err == nil {
		t.Error("batch size 0 accepted")
	}
	if _, err := NewBatchLog(shmem.NewSimMem(17), 17, 4, 8); err == nil {
		t.Error("17 processes accepted on a batched log")
	}
	if _, err := NewBatchLog(shmem.NewSimMem(17), 17, 4, 1); err != nil {
		t.Errorf("unbatched log must not cap processes: %v", err)
	}
}

// TestBatchPacksPendingIntoFewSlots: a stable leader with a deep queue
// commits many commands over few consensus slots, in submission order, and
// every replica resolves the same flattened stream.
func TestBatchPacksPendingIntoFewSlots(t *testing.T) {
	reps := newBatchReplicas(t, 3, 16, 8, func(i int) func() int {
		return func() int { return 0 }
	})
	want := make([]uint32, 20)
	for k := range want {
		want[k] = uint32(k + 1)
		reps[0].Submit(want[k])
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 500_000; s++ {
		reps[rng.Intn(3)].Step(0)
		if reps[0].CommittedLen() >= 20 && reps[1].CommittedLen() >= 20 && reps[2].CommittedLen() >= 20 {
			break
		}
	}
	for i, r := range reps {
		got := r.Committed()
		if len(got) != 20 || !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d committed %v, want %v", i, got, want)
		}
		// 20 commands at batch 8 need at least 3 slots; batching must have
		// used far fewer slots than commands.
		if r.SlotsDecided() >= 20 || r.SlotsDecided() < 3 {
			t.Fatalf("replica %d used %d slots for 20 commands", i, r.SlotsDecided())
		}
	}
	if reps[0].Pending() != 0 {
		t.Errorf("leader still has %d pending", reps[0].Pending())
	}
}

// TestBatchPrefixAgreementUnderChurn: concurrently proposing replicas
// (self-proclaimed leaders) publishing competing batches must keep the
// flattened committed streams prefix-consistent, and no command may
// commit twice (inputs are unique and nothing resubmits here).
func TestBatchPrefixAgreementUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		reps := newBatchReplicas(t, 3, 32, 4, func(i int) func() int {
			return func() int { return i }
		})
		for i, r := range reps {
			for k := 0; k < 6; k++ {
				r.Submit(uint32(100*i + k + 1))
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for s := 0; s < 150_000; s++ {
			reps[rng.Intn(3)].Step(0)
		}
		var longest []uint32
		for _, r := range reps {
			if c := r.Committed(); len(c) > len(longest) {
				longest = c
			}
		}
		for i, r := range reps {
			c := r.Committed()
			if !reflect.DeepEqual(c, longest[:len(c)]) {
				t.Fatalf("seed %d: replica %d diverged: %v vs %v", seed, i, c, longest)
			}
		}
		seen := map[uint32]bool{}
		for _, v := range longest {
			if isDesc(v) {
				t.Fatalf("seed %d: descriptor %#x leaked into the flattened stream", seed, v)
			}
			if seen[v] {
				t.Fatalf("seed %d: value %d committed twice", seed, v)
			}
			seen[v] = true
		}
	}
}

// TestBatchAreaExhaustionFallsBackToPlain: once a proposer's batch areas
// are spent (the run-time path there is leadership churn wasting
// publications on slots another proposer wins), it keeps committing via
// plain single-command proposals rather than wedging.
func TestBatchAreaExhaustionFallsBackToPlain(t *testing.T) {
	reps := newBatchReplicas(t, 2, 4, 8, func(i int) func() int {
		return func() int { return 0 }
	})
	// Burn replica 0's whole header area with publications that will
	// never be proposed.
	burned := 0
	for {
		if _, ok := reps[0].publishBatch([]uint32{901, 902}); !ok {
			break
		}
		burned++
	}
	if burned != 4 { // hdrCap = min(slots, batch seq cap) = 4
		t.Fatalf("burned %d publications, want 4", burned)
	}
	for k := 1; k <= 30; k++ {
		reps[0].Submit(uint32(k))
	}
	rng := rand.New(rand.NewSource(3))
	for s := 0; s < 200_000 && !reps[0].LogFull(); s++ {
		reps[rng.Intn(2)].Step(0)
	}
	if !reps[0].LogFull() {
		t.Fatal("log never filled")
	}
	got := reps[0].Committed()
	// Every slot decided one plain command: batching was unavailable but
	// the log kept moving.
	want := []uint32{1, 2, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed %v, want %v", got, want)
	}
	reps[0].Step(0) // full log: no-op, no panic
}

// TestBatchAreaCoversFullWidth: with properly sized areas a stable
// leader batches at full width for the whole log — Capacity()*MaxBatch
// commands are genuinely reachable.
func TestBatchAreaCoversFullWidth(t *testing.T) {
	reps := newBatchReplicas(t, 2, 4, 8, func(i int) func() int {
		return func() int { return 0 }
	})
	for k := 1; k <= 32; k++ {
		reps[0].Submit(uint32(k))
	}
	rng := rand.New(rand.NewSource(9))
	for s := 0; s < 200_000 && !reps[0].LogFull(); s++ {
		reps[rng.Intn(2)].Step(0)
	}
	got := reps[0].Committed()
	if len(got) != 32 {
		t.Fatalf("committed %d commands over 4 slots at batch 8, want all 32", len(got))
	}
	for i, v := range got {
		if v != uint32(i+1) {
			t.Fatalf("committed[%d] = %d, want %d", i, v, i+1)
		}
	}
}

// TestBatchedKVStoreConverges: the KV state machine over a batched log
// applies flattened batches in order and converges on every replica.
func TestBatchedKVStoreConverges(t *testing.T) {
	mem := shmem.NewSimMem(3)
	log, err := NewBatchLog(mem, 3, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]*KV, 3)
	for i := range kvs {
		r, err := NewReplica(log, i, func() int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	var cmds []uint32
	for k := 0; k < 40; k++ {
		cmds = append(cmds, EncodeSet(uint16(k%10), uint16(k)))
	}
	if err := kvs[0].SetAll(cmds...); err != nil {
		t.Fatal(err)
	}
	if err := kvs[0].Set(0xFFFF, 1); err == nil {
		t.Fatal("reserved key accepted on batched store")
	}
	if err := kvs[0].SetAll(EncodeSet(1, 1), EncodeSet(0xFFFF, 2)); err == nil {
		t.Fatal("SetAll with a reserved pair accepted")
	}
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 500_000; s++ {
		kvs[rng.Intn(3)].Step(0)
		if kvs[0].Applied() >= 40 && kvs[1].Applied() >= 40 && kvs[2].Applied() >= 40 {
			break
		}
	}
	want := kvs[0].Snapshot()
	if len(want) != 10 {
		t.Fatalf("leader state has %d keys, want 10 (applied %d)", len(want), kvs[0].Applied())
	}
	for k := 0; k < 10; k++ {
		if v, ok := kvs[0].Get(uint16(k)); !ok || v != uint16(30+k) {
			t.Fatalf("key %d = (%d, %v), want %d (last write wins in order)", k, v, ok, 30+k)
		}
	}
	for i := 1; i < 3; i++ {
		if got := kvs[i].Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d state %v diverged from %v", i, got, want)
		}
	}
	if kvs[0].SlotsDecided() >= kvs[0].CommittedLen() {
		t.Fatalf("no batching engaged: %d slots for %d commands",
			kvs[0].SlotsDecided(), kvs[0].CommittedLen())
	}
	if kvs[0].MaxBatch() != 8 || !kvs[0].Batched() {
		t.Fatal("batch accessors disagree with construction")
	}
}

func TestDropGeneration(t *testing.T) {
	mem := shmem.NewSimMem(2)
	log := NewLog(mem, 2, 4)
	r, err := NewReplica(log, 0, func() int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	kv, err := NewKV(r)
	if err != nil {
		t.Fatal(err)
	}
	if kv.DropGeneration() != 0 {
		t.Fatal("fresh replica has nonzero drop generation")
	}
	if kv.DropPending() != 0 || kv.DropGeneration() != 0 {
		t.Fatal("dropping an empty queue must not bump the generation")
	}
	if err := kv.Set(1, 2); err != nil {
		t.Fatal(err)
	}
	if kv.PendingLen() != 1 {
		t.Fatal("pending not queued")
	}
	if kv.DropPending() != 1 || kv.DropGeneration() != 1 {
		t.Fatal("dropping a non-empty queue must bump the generation once")
	}
}
