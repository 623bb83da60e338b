package core

import (
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// Shared1 is the shared memory of Algorithm 1 (paper Figure 2):
//
//   - SUSPICIONS[j][k]: natural; row j is 1WnR-owned by p_j; value x means
//     "p_j has suspected p_k x times so far".
//   - PROGRESS[i]: natural, owned by p_i; incremented forever while p_i
//     considers itself leader. The single potentially unbounded register
//     (of the eventual leader) in the whole algorithm (Theorem 2).
//   - STOP[i]: boolean, owned by p_i; true when p_i stopped competing.
//
// PROGRESS[k] and STOP[k] are the paper's critical registers: AWB1
// constrains only accesses to them.
type Shared1 struct {
	N          int
	Suspicions [][]shmem.Reg // [j][k], row j owned by j
	Progress   []shmem.Reg   // [i] owned by i
	Stop       []shmem.Reg   // [i] owned by i
}

// NewShared1 allocates Algorithm 1's registers in mem with the paper's
// initial values (naturals 0, booleans true).
func NewShared1(mem shmem.Mem, n int) *Shared1 {
	s := &Shared1{
		N:          n,
		Suspicions: make([][]shmem.Reg, n),
		Progress:   make([]shmem.Reg, n),
		Stop:       make([]shmem.Reg, n),
	}
	for j := 0; j < n; j++ {
		s.Suspicions[j] = make([]shmem.Reg, n)
		for k := 0; k < n; k++ {
			s.Suspicions[j][k] = mem.Word(j, ClassSuspicions, j, k)
		}
		s.Progress[j] = mem.Word(j, ClassProgress, j)
		s.Stop[j] = mem.Word(j, ClassStop, j)
		shmem.SeedIfPossible(s.Stop[j], shmem.B2W(true))
	}
	return s
}

// Algo1 is one process of Algorithm 1 (paper Figure 2).
//
// The paper notes (Section 3.2) that since PROGRESS[i], STOP[i] and
// SUSPICIONS[i][*] are written only by p_i, the process keeps local copies
// and never reads its own registers from shared memory; we do the same, so
// the read census reflects only genuine remote reads (which is what
// Lemma 6 is about).
type Algo1 struct {
	id int
	n  int
	sh *Shared1

	// Local state (the paper's lowercase variables).
	candidates []bool   // candidates_i; always contains id
	last       []uint64 // last_i[k]: greatest PROGRESS[k] value seen

	// Local copies of own registers.
	myProgress uint64
	myStop     bool
	mySusp     []uint64

	// susp is computeLeader's column-sum scratch, allocated once so a
	// step never touches the heap.
	susp []uint64

	// cachedLeader is the value returned by Leader() between recomputes;
	// task T2 recomputes it every iteration (the paper's while guard) and
	// task T3 after updating candidates. Sampling Leader() from the
	// harness therefore does not touch shared memory and does not distort
	// the access census.
	cachedLeader int
}

var _ Proc = (*Algo1)(nil)

// NewAlgo1 creates process id of Algorithm 1 over the shared memory sh.
// Initially candidates_i contains every process (any set containing i is
// allowed by the paper).
func NewAlgo1(sh *Shared1, id int) *Algo1 {
	p := &Algo1{
		id:           id,
		n:            sh.N,
		sh:           sh,
		candidates:   make([]bool, sh.N),
		last:         make([]uint64, sh.N),
		mySusp:       make([]uint64, sh.N),
		susp:         make([]uint64, sh.N),
		cachedLeader: id,
	}
	for k := range p.candidates {
		p.candidates[k] = true
	}
	// Adopt whatever initial values the registers hold (arbitrary initial
	// values are allowed; the algorithm is self-stabilizing w.r.t. them).
	p.myProgress = sh.Progress[id].Read(id)
	p.myStop = shmem.W2B(sh.Stop[id].Read(id))
	for k := 0; k < sh.N; k++ {
		p.mySusp[k] = sh.Suspicions[id][k].Read(id)
	}
	return p
}

// ID implements Proc.
func (p *Algo1) ID() int { return p.id }

// Leader implements task T1's externally observable value. The oracle
// output is recomputed by every T2 iteration and every T3 firing; see the
// cachedLeader comment.
func (p *Algo1) Leader() int { return p.cachedLeader }

// computeLeader is the body of task T1 (paper lines 2-5): for every
// candidate k, sum column k of SUSPICIONS, then take the lexicographic
// minimum of (suspicions, id).
func (p *Algo1) computeLeader() int {
	susp := p.susp
	for k := 0; k < p.n; k++ {
		if !p.candidates[k] {
			susp[k] = 0
			continue
		}
		var s uint64
		for j := 0; j < p.n; j++ {
			if j == p.id {
				s += p.mySusp[k] // own row from the local copy
			} else {
				s += p.sh.Suspicions[j][k].Read(p.id)
			}
		}
		susp[k] = s
	}
	p.cachedLeader = lexMin(susp, p.candidates, p.id)
	return p.cachedLeader
}

// Step implements one iteration of task T2 (paper lines 6-12): while the
// process believes it is the leader it keeps incrementing PROGRESS[i]
// (and holds STOP[i] false); on leaving the loop it raises STOP[i].
func (p *Algo1) Step(vclock.Time) {
	if p.computeLeader() == p.id {
		p.myProgress++
		p.sh.Progress[p.id].Write(p.id, p.myProgress) // line 8
		if p.myStop {
			p.myStop = false
			p.sh.Stop[p.id].Write(p.id, shmem.B2W(false)) // line 9
		}
		return
	}
	if !p.myStop {
		p.myStop = true
		p.sh.Stop[p.id].Write(p.id, shmem.B2W(true)) // line 11
	}
}

// OnTimer implements task T3 (paper lines 13-27). For every other process
// k it checks whether PROGRESS[k] moved since the last firing; if so k is
// a candidate; if not and STOP[k] holds, k withdrew voluntarily; otherwise
// k is suspected (SUSPICIONS[i][k] incremented) and dropped. Returns the
// next timeout value max_k SUSPICIONS[i][k] + 1.
func (p *Algo1) OnTimer(vclock.Time) uint64 {
	for k := 0; k < p.n; k++ {
		if k == p.id {
			continue
		}
		stopK := shmem.W2B(p.sh.Stop[k].Read(p.id)) // line 15
		progK := p.sh.Progress[k].Read(p.id)        // line 16
		switch {
		case progK != p.last[k]: // line 17
			p.candidates[k] = true // line 18
			p.last[k] = progK      // line 19
		case stopK: // line 20
			p.candidates[k] = false // line 21
		case p.candidates[k]: // line 22
			p.mySusp[k]++
			p.sh.Suspicions[p.id][k].Write(p.id, p.mySusp[k]) // line 23
			p.candidates[k] = false                           // line 24
		}
	}
	p.computeLeader()
	return maxPlusOne(p.mySusp) // line 27
}

// BuildAlgo1 allocates Algorithm 1's shared memory in mem and returns the
// n process state machines.
func BuildAlgo1(mem shmem.Mem, n int) []*Algo1 {
	sh := NewShared1(mem, n)
	procs := make([]*Algo1, n)
	for i := 0; i < n; i++ {
		procs[i] = NewAlgo1(sh, i)
	}
	return procs
}
