package consensus_test

import (
	"context"
	"testing"
	"time"

	"omegasm"
)

// TestSteadyStatePutZeroAllocs extends the write-path allocation gate to
// the acknowledged public Put: on a started store with every buffer
// warmed, a Put — submit, the replica machines' commit and apply, the
// commit hook's acknowledgment and the caller's wake-up — allocates
// nothing. AllocsPerRun counts the whole process, so the election and the
// engine running alongside must stay allocation-free as well.
func TestSteadyStatePutZeroAllocs(t *testing.T) {
	c, err := omegasm.New(omegasm.WithN(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	kv, err := omegasm.NewKV(c)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	val := uint16(0)
	put := func() {
		val = (val + 1) & 0x7FFF
		if err := kv.Put(ctx, val&0x3FF, val); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up across several checkpoints, so the log window, the
	// snapshot publications and the waiter pools have reached their
	// steady-state sizes.
	for i := 0; i < 4*kv.Capacity(); i++ {
		put()
	}
	if avg := testing.AllocsPerRun(1000, put); avg != 0 {
		t.Errorf("steady-state acknowledged Put allocates %.2f times/op, want 0", avg)
	}
}
