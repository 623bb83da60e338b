package core

import (
	"testing"

	"omegasm/internal/shmem"
)

// algo1Fixture builds Algorithm 1 for n processes on a fresh SimMem.
func algo1Fixture(n int) (*shmem.SimMem, *Shared1, []*Algo1) {
	mem := shmem.NewSimMem(n)
	sh := NewShared1(mem, n)
	procs := make([]*Algo1, n)
	for i := range procs {
		procs[i] = NewAlgo1(sh, i)
	}
	return mem, sh, procs
}

func TestAlgo1InitialState(t *testing.T) {
	_, sh, procs := algo1Fixture(3)
	// Paper initial values: naturals 0, booleans true.
	for i := 0; i < 3; i++ {
		if !shmem.W2B(sh.Stop[i].Read(i)) {
			t.Errorf("STOP[%d] must start true", i)
		}
		if sh.Progress[i].Read(i) != 0 {
			t.Errorf("PROGRESS[%d] must start 0", i)
		}
	}
	// Everyone starts with the full candidate set => lexmin is process 0.
	for i, p := range procs {
		if got := p.computeLeader(); got != 0 {
			t.Errorf("process %d initial leader = %d, want 0", i, got)
		}
	}
}

func TestAlgo1LeaderStepWritesProgress(t *testing.T) {
	_, sh, procs := algo1Fixture(3)
	p0 := procs[0]
	p0.Step(0) // believes leader: PROGRESS++ and STOP -> false (line 8-9)
	if got := sh.Progress[0].Read(1); got != 1 {
		t.Fatalf("PROGRESS[0] = %d after leader step, want 1", got)
	}
	if shmem.W2B(sh.Stop[0].Read(1)) {
		t.Fatal("STOP[0] must be false after a leader step")
	}
	p0.Step(0)
	if got := sh.Progress[0].Read(1); got != 2 {
		t.Fatalf("PROGRESS[0] = %d, want 2", got)
	}
}

func TestAlgo1NonLeaderStepRaisesStopOnce(t *testing.T) {
	mem, sh, procs := algo1Fixture(3)
	p1 := procs[1]
	// p1 sees leader 0, so its step takes the demotion branch (line 11).
	// STOP[1] is already true from initialization, so no write happens.
	before := mem.Census().Snapshot()
	p1.Step(0)
	after := mem.Census().Snapshot()
	d := after.Diff(before)
	if w := d.Regs["STOP[1]"].TotalWrites(); w != 0 {
		t.Fatalf("redundant STOP write: %d (local copy must suppress it)", w)
	}
	if shmem.W2B(sh.Stop[1].Read(0)) != true {
		t.Fatal("STOP[1] must remain true")
	}
	// Force p1 to have been leader once, then demote it: exactly one
	// STOP write.
	for k := 0; k < 3; k++ {
		if k != 1 {
			p1.candidates[k] = false
		}
	}
	p1.Step(0) // now p1 thinks it leads: STOP -> false
	if shmem.W2B(sh.Stop[1].Read(0)) {
		t.Fatal("STOP[1] must be false while p1 competes")
	}
	for k := 0; k < 3; k++ {
		p1.candidates[k] = true
	}
	p1.Step(0) // demoted: STOP -> true
	if !shmem.W2B(sh.Stop[1].Read(0)) {
		t.Fatal("STOP[1] must be true after demotion")
	}
}

func TestAlgo1TimerBranches(t *testing.T) {
	_, sh, procs := algo1Fixture(3)
	p0, p1 := procs[0], procs[1]

	// Branch 1 (lines 17-19): progress change makes a candidate.
	p0.Step(0) // PROGRESS[0] = 1
	p1.candidates[0] = false
	p1.OnTimer(0)
	if !p1.candidates[0] {
		t.Fatal("progressing process must become a candidate")
	}
	if p1.last[0] != 1 {
		t.Fatalf("last[0] = %d, want 1", p1.last[0])
	}

	// Branch 3 (lines 22-24): no progress, STOP false, candidate =>
	// suspected and removed.
	p1.OnTimer(0) // PROGRESS[0] still 1 => suspicion
	if p1.candidates[0] {
		t.Fatal("silent competing process must be removed")
	}
	if got := sh.Suspicions[1][0].Read(2); got != 1 {
		t.Fatalf("SUSPICIONS[1][0] = %d, want 1", got)
	}

	// Not a candidate anymore: a further silent check must NOT suspect
	// again (line 22 guard).
	p1.OnTimer(0)
	if got := sh.Suspicions[1][0].Read(2); got != 1 {
		t.Fatalf("SUSPICIONS[1][0] grew to %d while not a candidate", got)
	}

	// Branch 2 (lines 20-21): voluntary withdrawal via STOP is not a
	// suspicion. Re-add 2 as candidate, make it progress once, then stop.
	p2 := procs[2]
	for k := 0; k < 3; k++ {
		if k != 2 {
			p2.candidates[k] = false
		}
	}
	p2.Step(0) // PROGRESS[2]=1, STOP[2]=false
	p1.OnTimer(0)
	if !p1.candidates[2] {
		t.Fatal("p2 must be a candidate after progressing")
	}
	for k := 0; k < 3; k++ {
		p2.candidates[k] = true
	}
	p2.Step(0) // demote: STOP[2]=true, no progress
	p1.OnTimer(0)
	if p1.candidates[2] {
		t.Fatal("stopped process must be withdrawn")
	}
	if got := sh.Suspicions[1][2].Read(0); got != 0 {
		t.Fatalf("voluntary withdrawal counted as suspicion: %d", got)
	}
}

func TestAlgo1TimeoutValue(t *testing.T) {
	_, _, procs := algo1Fixture(3)
	p1 := procs[1]
	if got := p1.OnTimer(0); got != 1 {
		t.Fatalf("initial timeout = %d, want max(0)+1 = 1", got)
	}
	p1.mySusp[0], p1.mySusp[2] = 4, 9
	if got := p1.OnTimer(0); got != 10 {
		t.Fatalf("timeout = %d, want 10 (line 27)", got)
	}
}

func TestAlgo1LeaderQueryDoesNotTouchSharedMemory(t *testing.T) {
	mem, _, procs := algo1Fixture(3)
	procs[0].Step(0)
	before := mem.Census().Snapshot()
	for i := 0; i < 100; i++ {
		_ = procs[1].Leader()
	}
	after := mem.Census().Snapshot()
	d := after.Diff(before)
	var reads uint64
	for _, r := range d.Regs {
		reads += r.TotalReads()
	}
	if reads != 0 {
		t.Fatalf("Leader() performed %d register reads; the cached oracle output must be free", reads)
	}
}

func TestAlgo1OwnRegistersReadFromLocalCopies(t *testing.T) {
	mem, _, procs := algo1Fixture(3)
	base := mem.Census().Snapshot()
	// A leader step reads SUSPICIONS columns of others but must not read
	// its own row, PROGRESS[0], or STOP[0] (paper Section 3.2 remark).
	procs[0].Step(0)
	d := mem.Census().Snapshot().Diff(base)
	for _, name := range []string{"PROGRESS[0]", "STOP[0]", "SUSPICIONS[0][1]", "SUSPICIONS[0][2]"} {
		if r, ok := d.Regs[name]; ok && r.ReadsBy[0] > 0 {
			t.Errorf("process 0 read its own register %s (%d reads)", name, r.ReadsBy[0])
		}
	}
}

func TestAlgo1SelfNeverLeavesCandidates(t *testing.T) {
	_, _, procs := algo1Fixture(3)
	p1 := procs[1]
	for i := 0; i < 50; i++ {
		p1.Step(0)
		p1.OnTimer(0)
		if !p1.candidates[1] {
			t.Fatal("x in candidates_x must be invariant (proof of Theorem 1)")
		}
	}
}

func TestAlgo1AdoptsSeededRegisters(t *testing.T) {
	mem := shmem.NewSimMem(2)
	sh := NewShared1(mem, 2)
	shmem.SeedIfPossible(sh.Progress[0], 77)
	shmem.SeedIfPossible(sh.Suspicions[0][1], 5)
	shmem.SeedIfPossible(sh.Stop[0], 0)
	p0 := NewAlgo1(sh, 0)
	// Local copies must match the arbitrary initial shared state
	// (footnote 7: self-stabilization w.r.t. initial values).
	if p0.myProgress != 77 || p0.mySusp[1] != 5 || p0.myStop {
		t.Fatalf("local copies = (%d,%d,%v), want (77,5,false)",
			p0.myProgress, p0.mySusp[1], p0.myStop)
	}
	p0.Step(0)
	if got := sh.Progress[0].Read(1); got != 78 {
		t.Fatalf("PROGRESS[0] = %d, want 78 (continues from seed)", got)
	}
}

func TestBuildAlgo1SharesMemory(t *testing.T) {
	mem := shmem.NewSimMem(4)
	procs := BuildAlgo1(mem, 4)
	if len(procs) != 4 {
		t.Fatalf("built %d procs", len(procs))
	}
	// A write by one process must be visible to all others.
	procs[2].candidates = []bool{false, false, true, false}
	procs[2].Step(0) // PROGRESS[2] = 1
	for _, p := range procs {
		if p.ID() == 2 {
			continue
		}
		if got := p.sh.Progress[2].Read(p.ID()); got != 1 {
			t.Fatalf("process %d sees PROGRESS[2] = %d", p.ID(), got)
		}
	}
}

// TestAlgo1StepZeroAllocs is the allocation gate for the election's hot
// path: a T2 iteration (lines 2-12, including the leader recomputation)
// and a T3 firing must not touch the heap.
func TestAlgo1StepZeroAllocs(t *testing.T) {
	_, _, procs := algo1Fixture(3)
	if avg := testing.AllocsPerRun(100, func() {
		for _, p := range procs {
			p.Step(0)
		}
	}); avg != 0 {
		t.Errorf("Algo1.Step allocates %.2f times/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		for _, p := range procs {
			p.OnTimer(0)
		}
	}); avg != 0 {
		t.Errorf("Algo1.OnTimer allocates %.2f times/op, want 0", avg)
	}
}
