package omegasm_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"omegasm"
)

func TestProposeDecides(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	v, err := c.Propose(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("decided %d, want 42", v)
	}
	// One-shot: a later proposal with a different value returns the
	// already-decided one.
	v2, err := c.Propose(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != 42 {
		t.Fatalf("second Propose decided %d, want the original 42", v2)
	}
}

func TestProposeValidatesAndCancels(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Propose(ctx, 0xFFFFFFFF); err == nil {
		t.Error("reserved sentinel value accepted")
	}
	// A cancelled context must end the call promptly even before any
	// decision is possible.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := c.Propose(done, 5); err == nil {
		t.Error("Propose returned nil error on a dead context")
	}
}

func TestKVPutGet(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(64))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.Capacity() != 64 {
		t.Errorf("Capacity() = %d", kv.Capacity())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := uint16(0); k < 8; k++ {
		if err := kv.Put(ctx, k, 100+k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	for k := uint16(0); k < 8; k++ {
		if v, ok := kv.Get(k); !ok || v != 100+k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	if _, ok := kv.Get(999); ok {
		t.Error("Get of a never-written key reported ok")
	}
	if kv.Len() != 8 {
		t.Errorf("Len() = %d, want 8", kv.Len())
	}
	if kv.Applied() < 8 {
		t.Errorf("Applied() = %d, want >= 8", kv.Applied())
	}
	snap := kv.Snapshot()
	if len(snap) != 8 || snap[3] != 103 {
		t.Errorf("Snapshot() = %v", snap)
	}
	// Overwrite: last committed set wins.
	if err := kv.Put(ctx, 3, 999); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get(3); v != 999 {
		t.Errorf("after overwrite Get(3) = %d", v)
	}
	// Regression: re-writing a value the key held before must commit a
	// fresh log entry, not count the historical commit as success.
	if err := kv.Put(ctx, 3, 103); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get(3); v != 103 {
		t.Errorf("re-write of a prior value lost: Get(3) = %d, want 103", v)
	}
	// The reserved (0xFFFF, 0xFFFF) pair is rejected synchronously.
	if err := kv.Put(ctx, 0xFFFF, 0xFFFF); err == nil {
		t.Error("reserved pair accepted")
	}
}

// TestKVSurvivesLeaderCrash is the acceptance scenario: the store keeps
// serving reads and committing writes across a leader crash; committed
// pre-crash keys stay visible.
func TestKVSurvivesLeaderCrash(t *testing.T) {
	c := startCluster(t, fastOpts(4)...)
	leader, ok := c.WaitForAgreement(10 * time.Second)
	if !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(128))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for k := uint16(0); k < 5; k++ {
		if err := kv.Put(ctx, k, 10+k); err != nil {
			t.Fatalf("pre-crash put %d: %v", k, err)
		}
	}
	if err := c.Crash(leader); err != nil {
		t.Fatal(err)
	}
	// Reads keep answering immediately (from a surviving replica).
	if v, ok := kv.Get(0); !ok || v != 10 {
		t.Errorf("Get(0) after crash = %d, %v", v, ok)
	}
	// Writes resume once the survivors re-elect; Put retries internally.
	for k := uint16(5); k < 10; k++ {
		if err := kv.Put(ctx, k, 10+k); err != nil {
			t.Fatalf("post-crash put %d: %v", k, err)
		}
	}
	for k := uint16(0); k < 10; k++ {
		if v, ok := kv.Get(k); !ok || v != 10+k {
			t.Errorf("Get(%d) = %d, %v after failover", k, v, ok)
		}
	}
}

// TestKVReadModes exercises the three read modes live: leases are on by
// default, the agreed leader acquires and serves ReadLease locally, and
// both linearizable modes agree with the committed value.
func TestKVReadModes(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.LeaseDuration() <= 0 {
		t.Fatalf("LeaseDuration() = %v, want the default lease on", kv.LeaseDuration())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 7, 42); err != nil {
		t.Fatal(err)
	}
	// The holder appears once the agreed leader acquires and fences.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := kv.LeaseHolder(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease holder became readable")
		}
		time.Sleep(time.Millisecond)
	}
	for _, mode := range []omegasm.ReadMode{
		omegasm.ReadFreshest, omegasm.ReadLease, omegasm.ReadQuorum,
	} {
		v, ok, err := kv.Read(ctx, 7, mode)
		if err != nil || !ok || v != 42 {
			t.Errorf("Read(7, mode %d) = %d, %v, %v; want 42", mode, v, ok, err)
		}
		if _, ok, err := kv.Read(ctx, 999, mode); ok || err != nil {
			t.Errorf("Read(999, mode %d) = ok %v, err %v on absent key", mode, ok, err)
		}
	}
}

// TestLeaseReadZeroAllocs is the allocation regression gate for the
// lease-read fast path: once the holder's grant is readable, a
// ReadLease (and the ReadFreshest it builds on) is two atomic loads
// plus an array read — zero heap allocations per call.
func TestLeaseReadZeroAllocs(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 7, 42); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := kv.LeaseHolder(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease holder became readable")
		}
		time.Sleep(time.Millisecond)
	}
	for _, mode := range []omegasm.ReadMode{omegasm.ReadLease, omegasm.ReadFreshest} {
		mode := mode
		avg := testing.AllocsPerRun(500, func() {
			if v, ok, err := kv.Read(ctx, 7, mode); err != nil || !ok || v != 42 {
				t.Fatalf("Read(7, mode %d) = %d, %v, %v", mode, v, ok, err)
			}
		})
		if avg != 0 {
			t.Errorf("read mode %d allocates %.2f times/op, want 0", mode, avg)
		}
	}
}

// TestKVReadModesLeaseOff covers the degraded configurations: KVLease(0)
// keeps both linearizable modes working via the quorum fence, and a store
// without a descriptor row rejects them with ErrReadUnsupported.
func TestKVReadModesLeaseOff(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c,
		omegasm.KVStepInterval(50*time.Microsecond), omegasm.KVLease(0))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if d := kv.LeaseDuration(); d != 0 {
		t.Fatalf("LeaseDuration() = %v with KVLease(0)", d)
	}
	if _, ok := kv.LeaseHolder(); ok {
		t.Error("LeaseHolder() ok with leases disabled")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := kv.Put(ctx, 3, 9); err != nil {
		t.Fatal(err)
	}
	// ReadLease falls back to the quorum path; both stay linearizable.
	for _, mode := range []omegasm.ReadMode{omegasm.ReadLease, omegasm.ReadQuorum} {
		if v, ok, err := kv.Read(ctx, 3, mode); err != nil || !ok || v != 9 {
			t.Errorf("Read(3, mode %d) = %d, %v, %v; want 9", mode, v, ok, err)
		}
	}

	// No descriptor row: unbatched, checkpoint-free logs have nowhere to
	// decide a fence no-op, so the linearizable modes refuse.
	c2 := startCluster(t, fastOpts(3)...)
	if _, ok := c2.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement on second cluster")
	}
	plain, err := omegasm.NewKV(c2,
		omegasm.KVCheckpointEvery(0), omegasm.KVBatch(1),
		omegasm.KVStepInterval(50*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.Put(ctx, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := plain.Read(ctx, 1, omegasm.ReadQuorum); err != omegasm.ErrReadUnsupported {
		t.Errorf("ReadQuorum on plain store: err = %v, want ErrReadUnsupported", err)
	}
	if v, ok, err := plain.Read(ctx, 1, omegasm.ReadFreshest); err != nil || !ok || v != 2 {
		t.Errorf("ReadFreshest on plain store = %d, %v, %v", v, ok, err)
	}
}

func TestKVValidation(t *testing.T) {
	if _, err := omegasm.NewKV(nil); err == nil {
		t.Error("nil cluster accepted")
	}
	c := startCluster(t, fastOpts(2)...)
	if _, err := omegasm.NewKV(c, omegasm.KVSlots(0)); err == nil {
		t.Error("0 slots accepted")
	}
	if _, err := omegasm.NewKV(c, omegasm.KVStepInterval(0)); err == nil {
		t.Error("0 step interval accepted")
	}
	if _, err := omegasm.NewKV(c, nil); err == nil {
		t.Error("nil KVOption accepted")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(8))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if _, err := omegasm.NewKV(c); err == nil {
		t.Error("second KV on one cluster accepted")
	}
}

// TestKVLogFull is the regression gate for disabled checkpointing: with
// KVCheckpointEvery(0) the log is the old fixed array — it exhausts after
// KVSlots writes and fails cleanly with ErrLogFull while reads keep
// working, exactly the pre-recycling behavior.
func TestKVLogFull(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(4), omegasm.KVCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for k := uint16(0); k < 4; k++ {
		if err := kv.Put(ctx, k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	if err := kv.Put(ctx, 9, 9); err != omegasm.ErrLogFull {
		t.Errorf("Put on a full log: %v, want ErrLogFull", err)
	}
	if err := kv.Set(9, 9); err != omegasm.ErrLogFull {
		t.Errorf("Set on a full log: %v, want ErrLogFull", err)
	}
	if v, ok := kv.Get(2); !ok || v != 2 {
		t.Errorf("read after log full: %d, %v", v, ok)
	}
	if kv.CheckpointEvery() != 0 || kv.Checkpoints() != 0 {
		t.Error("checkpoint machinery engaged despite KVCheckpointEvery(0)")
	}
}

// TestKVSustainedStream is the unbounded-stream acceptance scenario: a
// default-options store (checkpointing on) pushes a write stream 10x its
// slot window with no ErrLogFull, recycling slots across multiple
// checkpoints, and the final state reads back exactly.
func TestKVSustainedStream(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	const slots = 32
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(slots))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if kv.CheckpointEvery() != slots/4 {
		t.Fatalf("CheckpointEvery() = %d, want the %d default", kv.CheckpointEvery(), slots/4)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const writes = 10 * slots
	for k := 0; k < writes; k++ {
		if err := kv.Put(ctx, uint16(k%16), uint16(k)); err != nil {
			t.Fatalf("put %d of a 10x-capacity stream: %v", k, err)
		}
	}
	for k := uint16(0); k < 16; k++ {
		want := uint16(writes - 16 + int(k)) // the last write of each key
		if v, ok := kv.Get(k); !ok || v != want {
			t.Errorf("Get(%d) = (%d, %v), want %d", k, v, ok, want)
		}
	}
	if kv.SlotsUsed() <= slots {
		t.Fatalf("SlotsUsed() = %d over a %d-slot window: recycling never engaged", kv.SlotsUsed(), slots)
	}
	if kv.Checkpoints() < 3 {
		t.Fatalf("only %d checkpoints over a 10x stream", kv.Checkpoints())
	}
}

// TestKVPutWakesParkedReplicas is the wake-driven engine's latency
// contract: with a pathologically slow fallback poll interval, a Put must
// still commit promptly, because enqueueing the write notifies the
// parked leader machine instead of waiting for the next tick. Under the
// old polling driver this test would need ~interval per consensus
// micro-step round and blow the deadline by orders of magnitude.
func TestKVPutWakesParkedReplicas(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	const interval = time.Second
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(32), omegasm.KVStepInterval(interval))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A transient leadership flap can legitimately push one Put onto the
	// slow retry path, so demand the majority be fast rather than all.
	const puts = 5
	fast := 0
	for k := uint16(0); k < puts; k++ {
		start := time.Now()
		if err := kv.Put(ctx, k, k); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
		if time.Since(start) < interval/4 {
			fast++
		}
	}
	if fast < puts-1 {
		t.Fatalf("only %d/%d Puts beat the %v poll interval: writes are not waking the parked leader", fast, puts, interval)
	}
	for k := uint16(0); k < puts; k++ {
		if v, ok := kv.Get(k); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
}

// TestKVCloseIdempotent checks Close twice and freezes the state.
func TestKVCloseIdempotent(t *testing.T) {
	c := startCluster(t, fastOpts(2)...)
	kv, err := omegasm.NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	kv.Close()
	kv.Close()
	if _, ok := kv.Get(1); ok {
		t.Error("empty closed store answered a key")
	}
}

// TestCallsAfterCloseReturnErrClosed is the lifecycle gate: once a store
// is closed, Put, PutAll and the blocking Read modes return ErrClosed
// instead of waiting on an engine that will never commit again — with
// context.Background() nothing else would end the wait — and a call
// already waiting when Close runs is released.
func TestCallsAfterCloseReturnErrClosed(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	s, err := omegasm.NewShardedKV(append(fastOpts(3), omegasm.WithShards(2))...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Release: a stream of Puts is in flight when Close runs; the one
	// caught waiting must come back with ErrClosed, not hang.
	inflight := make(chan error, 1)
	go func() {
		for k := uint16(0); ; k++ {
			if err := kv.Put(context.Background(), k%64, k); err != nil {
				inflight <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	kv.Close()
	s.Close()
	ctx := context.Background()
	read := func(kv *omegasm.KV, mode omegasm.ReadMode) func() error {
		return func() error { _, _, err := kv.Read(ctx, 1, mode); return err }
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"in-flight Put", func() error { return <-inflight }},
		{"Put", func() error { return kv.Put(ctx, 1, 1) }},
		{"PutAll", func() error { return kv.PutAll(ctx, omegasm.Entry{Key: 1, Val: 1}, omegasm.Entry{Key: 2, Val: 2}) }},
		{"Read(ReadQuorum)", read(kv, omegasm.ReadQuorum)},
		{"ShardedKV.Put", func() error { return s.Put(ctx, 1, 1) }},
		{"ShardedKV.MultiPut", func() error { return s.MultiPut(ctx, omegasm.Entry{Key: 1, Val: 1}, omegasm.Entry{Key: 2, Val: 2}) }},
		{"ShardedKV shard Read(ReadQuorum)", read(s.Shard(0), omegasm.ReadQuorum)},
	}
	for _, tc := range calls {
		if err := within(t, tc.name, tc.call); !errors.Is(err, omegasm.ErrClosed) {
			t.Errorf("%s after Close = %v, want ErrClosed", tc.name, err)
		}
	}
	// ReadLease serves locally until the frozen grant expires, then falls
	// back to the quorum path: it must end in ErrClosed too.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := within(t, "Read(ReadLease)", read(kv, omegasm.ReadLease))
		if errors.Is(err, omegasm.ErrClosed) {
			break
		}
		if err != nil {
			t.Fatalf("Read(ReadLease) after Close = %v, want ErrClosed", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("Read(ReadLease) kept serving 5s after Close; the lease never expired")
		}
		time.Sleep(time.Millisecond)
	}
}

// within runs call and fails the test if it has not returned after 5s.
func within(t *testing.T, name string, call func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- call() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", name)
		return nil
	}
}

// TestKVConcurrentWaiters drives the waiter table from many goroutines at
// once: writers whose Puts share keys and values (so commit matches can
// hit several waiters, and pooled operations are reused), writers that
// give up mid-wait, and quorum readers. Every completed Put's value must
// be readable, and every call must return. Run under -race it is the
// data-race check for the table, the commit hook and the pools.
func TestKVConcurrentWaiters(t *testing.T) {
	c := startCluster(t, fastOpts(3)...)
	if _, ok := c.WaitForAgreement(10 * time.Second); !ok {
		t.Fatal("no agreement")
	}
	kv, err := omegasm.NewKV(c, omegasm.KVSlots(32))
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const writers, puts = 4, 100
	errs := make(chan error, 2*writers+2)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			for i := 0; i < puts; i++ {
				// Writers w and w^1 write identical commands.
				key, val := uint16(w/2), uint16(i)
				if err := kv.Put(ctx, key, val); err != nil {
					errs <- err
					return
				}
				// The twin may lag and overwrite with an older value, so
				// only presence is checked here.
				if _, ok, err := kv.Read(ctx, key, omegasm.ReadQuorum); err != nil || !ok {
					errs <- fmt.Errorf("Read(%d) after Put = (%v, %v)", key, ok, err)
					return
				}
			}
			errs <- nil
		}()
		go func() {
			for i := 0; i < puts; i++ {
				short, stop := context.WithTimeout(ctx, time.Duration(i%4)*time.Microsecond)
				err := kv.PutAll(short, omegasm.Entry{Key: uint16(100 + w), Val: uint16(i)},
					omegasm.Entry{Key: uint16(200 + w), Val: uint16(i)})
				stop()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < puts; i++ {
				if _, _, err := kv.Read(ctx, uint16(i%4), omegasm.ReadQuorum); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 2*writers+2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := uint16(0); k < writers/2; k++ {
		if v, ok, err := kv.Read(ctx, k, omegasm.ReadQuorum); err != nil || !ok || v != puts-1 {
			t.Errorf("Read(%d) = (%d, %v, %v), want %d", k, v, ok, err, puts-1)
		}
	}
}
