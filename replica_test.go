package omegasm

import (
	"slices"
	"testing"

	"omegasm/internal/consensus"
	"omegasm/internal/engine"
	"omegasm/internal/shmem"
	"omegasm/internal/vclock"
)

// TestPutOpAcksAcrossCheckpointTrim pins the checkpoint-trim stall: the
// leader commits a Put's command, seals a checkpoint and trims the
// command out of every replica's retained tail before the Put polls
// again. The Put must still be acknowledged — without a leader change to
// trigger a resubmission — because its commit was matched when a replica
// applied it, not looked up in the tail afterwards.
func TestPutOpAcksAcrossCheckpointTrim(t *testing.T) {
	shape := logShape{n: 3, slots: 16, batch: 1, ckpt: 4}
	if err := shape.resolve(); err != nil {
		t.Fatal(err)
	}
	g, err := newReplicaGroup(shmem.NewSimMem(shape.n), groupParams{
		shape: shape,
		burst: 1,
		poll:  16,
		view: leaderView{
			agreed:  func() (int, bool) { return 0, true },
			crashed: func(int) bool { return false },
		},
		oracle:   func(int) func() int { return func() int { return 0 } },
		notify:   func(int) {},
		onCommit: func() {},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.ids = []int{0, 1, 2}

	var op putOp
	if err := op.start(g, []Entry{{Key: 1, Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if done, err := op.poll(); done || err != nil {
		t.Fatalf("first poll = %v, %v; want a pending submission", done, err)
	}
	// Filler writes behind the Put's command, enough to fill a
	// checkpoint interval past it.
	for v := uint16(0); v < 8; v++ {
		if err := g.stores[0].Set(2, v); err != nil {
			t.Fatal(err)
		}
	}
	cmd := consensus.EncodeSet(1, 1)
	trimmed := func() bool {
		for _, st := range g.stores {
			if st.Checkpoints() == 0 || slices.Contains(st.Committed(), cmd) {
				return false
			}
		}
		return true
	}
	var machines []engine.Machine
	for i := range g.stores {
		machines = append(machines, g.replica(i))
	}
	for now := vclock.Time(0); !trimmed(); now++ {
		if now > 10_000 {
			t.Fatal("no checkpoint trimmed the Put's command from every replica")
		}
		for _, m := range machines {
			m.Step(now)
		}
	}
	if done, err := op.poll(); !done || err != nil {
		t.Fatalf("poll after the trimming seal = %v, %v; want the committed Put acknowledged", done, err)
	}
}
