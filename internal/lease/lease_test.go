package lease

import (
	"sync"
	"testing"

	"omegasm/internal/vclock"
)

// step is one register operation of a scripted lease history and its
// expected outcome.
type step struct {
	op        string // "acquire", "extend" or "held"
	me        int
	now       vclock.Time
	dur, eps  int64
	ok        bool
	wantEpoch uint64 // checked for successful acquire and held steps
}

func (s step) run(t *testing.T, r *Register, i int) {
	t.Helper()
	var (
		epoch uint64
		ok    bool
	)
	switch s.op {
	case "acquire":
		epoch, ok = r.Acquire(s.me, s.now, s.dur, s.eps)
	case "extend":
		ok = r.Extend(s.me, s.now, s.dur)
	case "held":
		epoch, ok = r.Held(s.me, s.now)
	default:
		t.Fatalf("step %d: unknown op %q", i, s.op)
	}
	if ok != s.ok {
		t.Fatalf("step %d: %s(me=%d, now=%d) ok = %t, want %t", i, s.op, s.me, s.now, ok, s.ok)
	}
	if ok && s.op != "extend" && epoch != s.wantEpoch {
		t.Fatalf("step %d: %s(me=%d, now=%d) epoch = %d, want %d", i, s.op, s.me, s.now, epoch, s.wantEpoch)
	}
}

func TestAcquireExtendHeld(t *testing.T) {
	acquire := func(me int, now vclock.Time, dur, eps int64, ok bool, epoch uint64) step {
		return step{op: "acquire", me: me, now: now, dur: dur, eps: eps, ok: ok, wantEpoch: epoch}
	}
	extend := func(me int, now vclock.Time, dur int64, ok bool) step {
		return step{op: "extend", me: me, now: now, dur: dur, ok: ok}
	}
	held := func(me int, now vclock.Time, ok bool, epoch uint64) step {
		return step{op: "held", me: me, now: now, ok: ok, wantEpoch: epoch}
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"zero register is unheld", []step{
			held(0, 0, false, 0),
			held(0, 5, false, 0),
		}},
		{"fresh acquire holds until expiry, exclusive", []step{
			acquire(0, 10, 100, 0, true, 1),
			held(0, 10, true, 1),
			held(0, 109, true, 1),
			held(0, 110, false, 0),
			held(1, 50, false, 0),
		}},
		{"acquire refused while a grant is valid", []step{
			acquire(0, 10, 100, 0, true, 1),
			acquire(1, 50, 100, 0, false, 0),
			acquire(0, 50, 100, 0, false, 0),  // the holder too: extend, not re-acquire
			acquire(1, 110, 100, 0, false, 0), // the guard is inclusive of the expiry
			acquire(1, 111, 100, 0, true, 2),
			held(1, 150, true, 2),
			held(0, 150, false, 0),
		}},
		{"eps > 0 widens the acquire guard", []step{
			acquire(0, 10, 100, 20, true, 1),
			acquire(1, 111, 100, 20, false, 0), // expired, but within eps
			acquire(1, 130, 100, 20, false, 0),
			acquire(1, 131, 100, 20, true, 2),
		}},
		{"negative eps admits an overlapping grant", []step{
			acquire(0, 10, 100, 0, true, 1),
			acquire(1, 60, 100, -200, true, 2), // grant 1 is still valid until 110
			held(1, 60, true, 2),
			held(0, 60, false, 0), // dispossessed: the register names one holder
			held(1, 159, true, 2),
		}},
		{"extend pushes the expiry while valid", []step{
			acquire(0, 10, 100, 0, true, 1),
			extend(0, 100, 100, true),
			held(0, 199, true, 1),
			held(0, 200, false, 0),
		}},
		{"extend never shortens a grant", []step{
			acquire(0, 10, 100, 0, true, 1),
			extend(0, 20, 10, true),
			held(0, 109, true, 1),
		}},
		{"extend by a non-holder fails", []step{
			acquire(0, 10, 100, 0, true, 1),
			extend(1, 50, 100, false),
			held(0, 109, true, 1),
			held(0, 110, false, 0),
		}},
		{"a lapsed grant cannot be extended, only re-acquired", []step{
			acquire(0, 10, 100, 0, true, 1),
			extend(0, 110, 100, false),
			held(0, 111, false, 0),
			acquire(0, 111, 100, 0, true, 2),
			held(0, 150, true, 2),
		}},
		{"holder ids outside the packable range are refused", []step{
			acquire(-1, 10, 100, 0, false, 0),
			acquire(maxHolders, 10, 100, 0, false, 0),
			acquire(maxHolders-1, 10, 100, 0, true, 1),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &Register{}
			for i, s := range tc.steps {
				s.run(t, r, i)
			}
		})
	}
}

// TestHistoryRecordsOverlap: the recorded grants carry the observed
// previous expiry, so AcquiredAt > PrevExpiry holds for every grant the
// guard admits and fails exactly for a negative-eps acquisition.
func TestHistoryRecordsOverlap(t *testing.T) {
	r := &Register{}
	r.EnableHistory()
	r.Acquire(0, 10, 100, 0)
	r.Extend(0, 50, 100) // final expiry 150
	r.Acquire(1, 151, 100, 0)
	r.Acquire(2, 200, 100, -200) // grant 2 is valid until 251
	h := r.History()
	want := []Grant{
		{Epoch: 1, Holder: 0, AcquiredAt: 10, Expiry: 110, PrevExpiry: 0},
		{Epoch: 2, Holder: 1, AcquiredAt: 151, Expiry: 251, PrevExpiry: 150},
		{Epoch: 3, Holder: 2, AcquiredAt: 200, Expiry: 300, PrevExpiry: 251},
	}
	if len(h) != len(want) {
		t.Fatalf("history has %d grants, want %d: %+v", len(h), len(want), h)
	}
	for i := range want {
		if h[i] != want[i] {
			t.Errorf("grant %d = %+v, want %+v", i, h[i], want[i])
		}
	}
	for i, g := range h {
		if overlap := g.AcquiredAt <= g.PrevExpiry; overlap != (i == 2) {
			t.Errorf("grant %d overlap = %t", i, overlap)
		}
	}
	if off := (&Register{}); len(off.History()) != 0 {
		t.Error("history recorded without EnableHistory")
	}
}

// TestReadableGate covers MarkReadable/ReadableHolder: a fresh grant is
// not readable until its barrier is marked, expiry ends readability, and
// a mark for an older epoch never makes a newer grant readable.
func TestReadableGate(t *testing.T) {
	type readable struct {
		now    vclock.Time
		holder int
		epoch  uint64
		ok     bool
	}
	check := func(r *Register, want readable) {
		t.Helper()
		h, e, ok := r.ReadableHolder(want.now)
		if ok != want.ok || (ok && (h != want.holder || e != want.epoch)) {
			t.Fatalf("ReadableHolder(%d) = (%d, %d, %t), want (%d, %d, %t)",
				want.now, h, e, ok, want.holder, want.epoch, want.ok)
		}
		if _, peek := r.Peek(); want.ok && !peek {
			t.Fatalf("Peek at %d: grant not marked readable", want.now)
		}
	}
	r := &Register{}
	check(r, readable{now: 0})
	r.MarkReadable(0, 0) // the zero grant is expired: marking it serves nothing
	check(r, readable{now: 0})

	if e, ok := r.Acquire(0, 10, 100, 0); !ok || e != 1 {
		t.Fatalf("acquire = %d, %t", e, ok)
	}
	check(r, readable{now: 20}) // barrier not yet complete
	r.MarkReadable(1, 0)
	check(r, readable{now: 20, holder: 0, epoch: 1, ok: true})
	r.Extend(0, 90, 100)
	check(r, readable{now: 180, holder: 0, epoch: 1, ok: true})
	check(r, readable{now: 190}) // expired

	if e, ok := r.Acquire(1, 191, 100, 0); !ok || e != 2 {
		t.Fatalf("re-acquire = %d, %t", e, ok)
	}
	check(r, readable{now: 200}) // epoch 1's mark does not carry over
	r.MarkReadable(1, 0)         // a stale call by the dispossessed holder
	check(r, readable{now: 200})
	r.MarkReadable(2, 0) // right epoch, wrong holder
	check(r, readable{now: 200})
	r.MarkReadable(2, 1)
	check(r, readable{now: 200, holder: 1, epoch: 2, ok: true})
}

// TestConcurrentAcquireHasOneHolder: claimants racing for an expired
// lease at the same instant leave exactly one holder. More than one
// Acquire may report success — a claim CASed in before the previous
// winner stored its expiry supersedes it — but every success advances
// the epoch by one, and only the last claimant ever holds.
func TestConcurrentAcquireHasOneHolder(t *testing.T) {
	const claimants = 8
	for round := 0; round < 50; round++ {
		r := &Register{}
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			wins int
		)
		for me := 0; me < claimants; me++ {
			wg.Add(1)
			go func(me int) {
				defer wg.Done()
				if _, ok := r.Acquire(me, 10, 100, 0); ok {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}(me)
		}
		wg.Wait()
		holders := 0
		for me := 0; me < claimants; me++ {
			if _, ok := r.Held(me, 20); ok {
				holders++
			}
		}
		g, _ := r.Peek()
		if holders != 1 || wins < 1 || g.Epoch != uint64(wins) || g.Expiry != 110 {
			t.Fatalf("round %d: %d holders, %d successful claims, register %+v", round, holders, wins, g)
		}
	}
}
