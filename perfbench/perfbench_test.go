package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"omegasm/internal/consensus"
	"omegasm/internal/shmem"
	"omegasm/load"
)

func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},  // overlaps b
		{Name: "b", Start: 20, End: 50, Parent: 0},  // union with a: [10, 50)
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out: only [90, 100) counts
		{Name: "d", Start: 25, End: 45, Parent: 2},  // inside b
		{Name: "e", Start: 200, End: 210, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestQuantileRankAndSampleRule(t *testing.T) {
	mk := func(n int) dist {
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(n - i) // descending: newDist must sort
		}
		return newDist(xs)
	}
	d := mk(100)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := d.rank(c.q); got != c.want {
			t.Errorf("rank(%v) of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := d.quantile(0.99); err == nil {
		t.Error("p99 of 100 samples accepted; it has only one sample beyond it")
	}
	if _, err := mk(999).quantile(0.99); err == nil {
		t.Error("p99 of 999 samples accepted; it needs 1000")
	}
	if got, err := mk(1000).quantile(0.99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", got, err)
	}
	if got, err := mk(1).quantile(0.5); err != nil || got != 1 {
		t.Errorf("p50 of one sample = %v, %v", got, err)
	}
	if _, err := newDist(nil).quantile(0.5); err == nil {
		t.Error("quantile of no samples accepted")
	}
	if _, err := groupQuantiles([][]time.Duration{mk(1000), mk(99)}); err == nil {
		t.Error("group with too few samples for its p90 accepted")
	}
	g, err := groupQuantiles([][]time.Duration{mk(1000), mk(2000), mk(3000)})
	if err != nil || g != (tails{p25: 500, p50: 1000, p90: 1800, p99: 1980, n: 6000}) {
		t.Errorf("group medians = %+v, %v; want p25 500, p50 1000, p90 1800, p99 1980, n 6000", g, err)
	}
	if g, err := groupQuantiles([][]time.Duration{mk(1000), mk(500)}); err != nil || g.p99 != 0 || g.p90 == 0 {
		t.Errorf("p99 of a group that cannot support it = %+v, %v; want 0 with p90 set", g, err)
	}
}

// runStack drives a checkpointing, batching consensus stack over mem on
// one goroutine in a seeded order and returns replica 0's committed
// stream.
func runStack(t *testing.T, mem shmem.Mem, writes int) []uint32 {
	t.Helper()
	const n, slots, every = 3, 16, 4
	log, err := consensus.NewCheckpointLog(mem, n, slots, 4, every)
	if err != nil {
		t.Fatal(err)
	}
	kvs := make([]*consensus.KV, n)
	for i := range kvs {
		r, err := consensus.NewReplica(log, i, func() int { return 0 })
		if err != nil {
			t.Fatal(err)
		}
		if kvs[i], err = consensus.NewKV(r); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < writes; k++ {
		if err := kvs[0].Set(uint16(k%10), uint16(k)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 4_000_000; s++ {
		kvs[rng.Intn(n)].Step(0)
		if kvs[0].Applied() >= writes && kvs[1].Applied() >= writes && kvs[2].Applied() >= writes {
			break
		}
	}
	if kvs[0].Applied() < writes {
		t.Fatalf("stack applied %d of %d writes", kvs[0].Applied(), writes)
	}
	return kvs[0].Committed()
}

// censusCounts is a census reduced to per-register access counts.
func censusCounts(c *shmem.Census) map[string][2]uint64 {
	out := map[string][2]uint64{}
	for name, r := range c.Snapshot().Regs {
		out[name] = [2]uint64{r.TotalReads(), r.TotalWrites()}
	}
	return out
}

// TestCountMemForwards checks that the counting wrapper leaves the stack
// on the unwrapped stack's code paths: the same commits, the same
// registers with the same access counts (a dropped Discard would leave
// recycled registers in the census), the inner memory's bulk register
// type, and class counts that cover the census.
func TestCountMemForwards(t *testing.T) {
	const writes = 200
	plain := shmem.NewAtomicMem(3, true)
	wantCommits := runStack(t, plain, writes)
	inner := shmem.NewAtomicMem(3, true)
	wrapped := newCountMem(inner)
	gotCommits := runStack(t, wrapped, writes)
	if !reflect.DeepEqual(gotCommits, wantCommits) {
		t.Fatalf("wrapped stack committed %d entries, unwrapped %d (or in another order)", len(gotCommits), len(wantCommits))
	}
	want, got := censusCounts(plain.Census()), censusCounts(inner.Census())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("census differs: wrapped stack has %d registers, unwrapped %d", len(got), len(want))
	}
	if wrapped.rowBlocks.Load() == 0 || wrapped.discards.Load() == 0 {
		t.Fatalf("bulk allocations %d, discards %d forwarded; the run must exercise both",
			wrapped.rowBlocks.Load(), wrapped.discards.Load())
	}
	bulk := shmem.NewAtomicMem(3, false).WordRowBlock("X", 0, 1, 3)[0][0]
	viaWrapper := newCountMem(shmem.NewAtomicMem(3, false)).WordRowBlock("X", 0, 1, 3)[0][0].(*countReg).Reg
	if fmt.Sprintf("%T", viaWrapper) != fmt.Sprintf("%T", bulk) {
		t.Fatalf("wrapped row holds %T, inner bulk path gives %T", viaWrapper, bulk)
	}
	var censusR, censusW uint64
	for _, c := range want {
		censusR, censusW = censusR+c[0], censusW+c[1]
	}
	r, w := wrapped.totals().sum()
	if uint64(r) < censusR || uint64(w) < censusW || r == 0 || w == 0 {
		t.Fatalf("wrapper counted %d reads, %d writes; census of live registers has %d, %d", r, w, censusR, censusW)
	}
}

func TestSameSeedSamePlan(t *testing.T) {
	plans := map[string]func(seed int64) load.Spec{
		"mixed-open":   func(seed int64) load.Spec { return moSpec(seed, 1, time.Second) },
		"san-failover": func(seed int64) load.Spec { return sfSpec(seed, 3, time.Second) },
	}
	for name, plan := range plans {
		var got [3][]load.Request
		for i, seed := range []int64{5, 5, 6} {
			spec := plan(seed)
			s, err := spec.Schedule()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = s
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: same seed gave different arrival plans", name)
		}
		if reflect.DeepEqual(got[0], got[2]) {
			t.Errorf("%s: different seeds gave the same arrival plan", name)
		}
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 100}
	if got := trimmedMeanF(xs); got != 5.5 {
		t.Errorf("trimmedMeanF = %v, want 5.5 (2..9 without 1 and 100)", got)
	}
}

func TestKeyModelChecks(t *testing.T) {
	m := newKeyModel(4)
	m.issued[1].Store(5)
	for _, c := range []struct {
		floor uint32
		v     uint16
		ok    bool
		bad   bool
	}{
		{0, 0, false, false}, // nothing acknowledged, nothing found
		{3, 3, true, false},
		{3, 5, true, false},
		{3, 2, true, true},  // older than an acknowledged Put
		{3, 0, false, true}, // acknowledged Put lost
		{3, 6, true, true},  // never written
	} {
		if err := m.checkRead(1, c.floor, c.v, c.ok); (err != nil) != c.bad {
			t.Errorf("checkRead(floor %d, %d, %v) = %v, want failure %v", c.floor, c.v, c.ok, err, c.bad)
		}
	}
}
