package main

import (
	"sync"
	"sync/atomic"

	"omegasm/internal/shmem"
)

// classCount holds the register accesses of one register class.
type classCount struct {
	reads, writes atomic.Int64
}

// countMem wraps a shmem.Mem and counts register reads and writes by
// class. It forwards every optional interface the stack probes for —
// shmem.RowAllocator, shmem.Discarder and, per register, shmem.Seeder —
// so the wrapped stack takes exactly the code paths of the unwrapped one.
type countMem struct {
	inner shmem.Mem

	mu      sync.Mutex
	classes map[string]*classCount

	rowBlocks atomic.Int64 // bulk allocations forwarded
	discards  atomic.Int64 // reclamations forwarded
}

var (
	_ shmem.Mem          = (*countMem)(nil)
	_ shmem.RowAllocator = (*countMem)(nil)
	_ shmem.Discarder    = (*countMem)(nil)
	_ shmem.Seeder       = (*countReg)(nil)
)

func newCountMem(inner shmem.Mem) *countMem {
	return &countMem{inner: inner, classes: make(map[string]*classCount)}
}

func (m *countMem) counter(class string) *classCount {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.classes[class]
	if c == nil {
		c = &classCount{}
		m.classes[class] = c
	}
	return c
}

// Word allocates through the inner memory and wraps the register.
func (m *countMem) Word(owner int, class string, idx ...int) shmem.Reg {
	return &countReg{Reg: m.inner.Word(owner, class, idx...), c: m.counter(class)}
}

// WordRowBlock allocates through the inner memory's bulk path (or its
// per-register fallback, exactly as an unwrapped caller would get) and
// wraps the block over one backing array.
func (m *countMem) WordRowBlock(class string, tag0, k, n int) [][]shmem.Reg {
	m.rowBlocks.Add(1)
	inner := shmem.WordRowBlock(m.inner, class, tag0, k, n)
	c := m.counter(class)
	backing := make([]countReg, k*n)
	flat := make([]shmem.Reg, k*n)
	rows := make([][]shmem.Reg, k)
	for j, row := range inner {
		for i, r := range row {
			w := &backing[j*n+i]
			w.Reg, w.c = r, c
			flat[j*n+i] = w
		}
		rows[j] = flat[j*n : (j+1)*n : (j+1)*n]
	}
	return rows
}

// Discard unwraps the register and forwards to the inner memory.
func (m *countMem) Discard(reg shmem.Reg) {
	m.discards.Add(1)
	if w, ok := reg.(*countReg); ok {
		reg = w.Reg
	}
	shmem.DiscardIfPossible(m.inner, reg)
}

// Census returns the inner memory's census.
func (m *countMem) Census() *shmem.Census { return m.inner.Census() }

// classTotals is a point-in-time copy of the per-class counts.
type classTotals map[string][2]int64 // class -> {reads, writes}

func (m *countMem) totals() classTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(classTotals, len(m.classes))
	for k, c := range m.classes {
		out[k] = [2]int64{c.reads.Load(), c.writes.Load()}
	}
	return out
}

// sub returns t minus an earlier snapshot.
func (t classTotals) sub(earlier classTotals) classTotals {
	out := make(classTotals, len(t))
	for k, v := range t {
		e := earlier[k]
		out[k] = [2]int64{v[0] - e[0], v[1] - e[1]}
	}
	return out
}

// sum adds reads and writes over the given classes (all when none named).
func (t classTotals) sum(classes ...string) (reads, writes int64) {
	if len(classes) == 0 {
		for _, v := range t {
			reads, writes = reads+v[0], writes+v[1]
		}
		return
	}
	for _, c := range classes {
		reads, writes = reads+t[c][0], writes+t[c][1]
	}
	return
}

// countReg counts accesses to one register and forwards them.
type countReg struct {
	shmem.Reg
	c *classCount
}

func (r *countReg) Read(pid int) uint64 {
	r.c.reads.Add(1)
	return r.Reg.Read(pid)
}

func (r *countReg) Write(pid int, v uint64) {
	r.c.writes.Add(1)
	r.Reg.Write(pid, v)
}

// Seed forwards an initial-value install to registers that support it.
func (r *countReg) Seed(v uint64) { shmem.SeedIfPossible(r.Reg, v) }
