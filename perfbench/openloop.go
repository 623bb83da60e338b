package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"omegasm/load"
)

const (
	// opDeadline bounds each attempt of a request: an attempt still
	// running then is abandoned and the request is sent again (a Put
	// writes its key's next value, so the key model stays exact). It
	// keeps the checkpoint-trim stall (README.md) a cost, not a lost
	// request.
	opDeadline = 10 * slo
	// opGiveUp bounds a request with all its attempts: past it the
	// request counts as failed.
	opGiveUp = 25 * opDeadline
	// maxInflight caps the requests outstanding at once; an arrival
	// beyond it is refused and counts as failed.
	maxInflight = 8192
	// lateLimit is the generator's allowed p90 lateness: a phase whose
	// generator ran later than this behind its schedule is invalid. (Its
	// p99 is no test: on a shared 2-vCPU host a bare spinning loop already
	// loses the CPU for milliseconds hundreds of times a second.)
	lateLimit = slo / 4
)

// opResult is one open-loop request's outcome. Latency runs from the
// request's scheduled arrival, so generator lateness and any queueing are
// charged to it; failed requests carry lat < 0.
type opResult struct {
	lat  time.Duration
	read bool
}

// openResult is one open-loop phase.
type openResult struct {
	sched       []load.Request
	ops         []opResult
	late        []time.Duration // dispatch time minus scheduled arrival
	inflightMax int64
	retries     atomic.Int64 // attempts abandoned at opDeadline and sent again
	window      time.Duration
	objects     uint64 // heap allocations from first arrival to last completion
	bytes       uint64
	o0, b0      uint64 // the allocation counters when the phase began
}

// openOp serves request i of a phase's schedule.
type openOp func(ctx context.Context, i int, r load.Request) error

// runOpen plays sched open-loop: every request is sent at its scheduled
// arrival (offset from start) no matter how many are outstanding, on its
// own goroutine; each attempt has opDeadline, the request opGiveUp.
func runOpen(start time.Time, sched []load.Request, window time.Duration, do openOp) *openResult {
	res := &openResult{sched: sched, ops: make([]opResult, len(sched)), late: make([]time.Duration, len(sched)), window: window}
	var inflight atomic.Int64
	var wg sync.WaitGroup
	ac := newAllocCounter()
	o0, b0 := ac.read()
	for i, r := range sched {
		due := start.Add(r.At)
		waitUntil(due)
		res.late[i] = time.Since(due)
		n := inflight.Add(1)
		if n > res.inflightMax {
			res.inflightMax = n
		}
		if n > maxInflight {
			inflight.Add(-1)
			res.ops[i] = opResult{lat: -1, read: r.Read}
			continue
		}
		wg.Add(1)
		go func(i int, r load.Request, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			var err error
			for a := time.Duration(1); ; a++ {
				ctx, cancel := context.WithDeadline(context.Background(), due.Add(a*opDeadline))
				err = do(ctx, i, r)
				cancel()
				if !errors.Is(err, context.DeadlineExceeded) || a*opDeadline >= opGiveUp {
					break
				}
				res.retries.Add(1)
			}
			lat := time.Since(due)
			if err != nil {
				lat = -1
			}
			res.ops[i] = opResult{lat: lat, read: r.Read}
		}(i, r, due)
	}
	wg.Wait()
	o1, b1 := ac.read()
	res.o0, res.b0 = o0, b0
	res.objects, res.bytes = o1-o0, b1-b0
	return res
}

// spinFor is how close to an arrival the generator stops sleeping and
// polls instead: a timer sleep on Linux can overshoot by up to a
// millisecond, which would charge every request that much lateness.
const spinFor = 1500 * time.Microsecond

// waitUntil blocks until t: a timer sleep while t is far, then a
// yielding poll, so runnable goroutines keep the CPU while it waits.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinFor; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// split returns the latencies of completed reads and puts and the
// number of failed requests.
func (r *openResult) split() (reads, puts []time.Duration, failed int) {
	for _, op := range r.ops {
		switch {
		case op.lat < 0:
			failed++
		case op.read:
			reads = append(reads, op.lat)
		default:
			puts = append(puts, op.lat)
		}
	}
	return
}

// minSubWindows is the fewest equal windows a phase's arrivals are cut
// into; longer phases get one window per second. Pass rules and reported
// percentiles take the median over the windows, so a scheduling hiccup of
// the host moves one window, not the phase.
const minSubWindows = 5

// windows returns the request indices of each sub-window, by scheduled
// arrival.
func (r *openResult) windows() [][]int {
	n := int(r.window / time.Second)
	if n < minSubWindows {
		n = minSubWindows
	}
	out := make([][]int, n)
	w := r.window / time.Duration(n)
	for i, q := range r.sched {
		k := int(q.At / w)
		if k >= n {
			k = n - 1
		}
		out[k] = append(out[k], i)
	}
	return out
}

// windowMedian applies f to each sub-window and returns the median.
func (r *openResult) windowMedian(f func(idx []int) (float64, error)) (float64, error) {
	var xs []float64
	for _, idx := range r.windows() {
		x, err := f(idx)
		if err != nil {
			return 0, err
		}
		xs = append(xs, x)
	}
	return medianF(xs), nil
}

// lateQ is the median over sub-windows of the generator's q-quantile
// lateness.
func (r *openResult) lateQ(q float64) time.Duration {
	x, _ := r.windowMedian(func(idx []int) (float64, error) {
		late := make([]time.Duration, len(idx))
		for j, i := range idx {
			late[j] = r.late[i]
		}
		return float64(newDist(late).rank(q)), nil
	})
	return time.Duration(x)
}

// latencies returns the medians over sub-windows of the percentiles of
// the completed reads (read) or puts (!read).
func (r *openResult) latencies(read bool) (tails, error) {
	var groups [][]time.Duration
	for _, idx := range r.windows() {
		var g []time.Duration
		for _, i := range idx {
			if op := r.ops[i]; op.lat >= 0 && op.read == read {
				g = append(g, op.lat)
			}
		}
		groups = append(groups, g)
	}
	return groupQuantiles(groups)
}

// rate is the measured arrival rate of the phase.
func (r *openResult) rate() float64 { return float64(len(r.sched)) / r.window.Seconds() }

// valid reports whether the generator kept to its schedule.
func (r *openResult) valid() (bool, time.Duration) {
	late := r.lateQ(0.9)
	return late <= lateLimit, late
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
