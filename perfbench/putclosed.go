package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"omegasm"
)

// put-closed: two closed-loop clients doing acknowledged KV.Put on an
// n=3 atomic store with default options, writes only, each client on its
// own half of the key space.
const (
	pcClients = 2
	pcKeys    = 1024
	pcSetups  = 81
	// pcStores is how many fresh stores the measured window is split over.
	pcStores = 5
	// pcPasses is how many ReadLease passes the readback times.
	pcPasses = 20
)

// kvSetup is one built, elected and written-to store.
type kvSetup struct {
	c  *omegasm.Cluster
	kv *omegasm.KV
	// setup is build + election + store + first acknowledged write.
	setup time.Duration
}

func (s *kvSetup) close() {
	s.kv.Close()
	s.c.Stop()
}

// setupKV builds an n=3 cluster with the given options, starts it, opens
// its KV store with default options and waits for the first acknowledged
// Put of key through the model.
func setupKV(m *keyModel, key uint16, opts ...omegasm.Option) (*kvSetup, error) {
	t0 := time.Now()
	c, err := omegasm.New(append([]omegasm.Option{omegasm.WithN(3)}, opts...)...)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	kv, err := omegasm.NewKV(c)
	if err != nil {
		c.Stop()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.put(ctx, key, kv.Put); err != nil {
		kv.Close()
		c.Stop()
		return nil, fmt.Errorf("first write: %w", err)
	}
	return &kvSetup{c: c, kv: kv, setup: time.Since(t0)}, nil
}

// setupMedian builds count stores one after another and keeps the last.
// It returns the median set-up time and, from each store it discards,
// the failover time: its agreed leader is crashed and one Put is sent.
func setupMedian(count int, build func() (*kvSetup, error)) (*kvSetup, float64, []float64, error) {
	var setups, fails []float64
	var s *kvSetup
	for i := 0; i < count; i++ {
		var err error
		if s, err = build(); err != nil {
			return nil, 0, nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == count-1 {
			break
		}
		d, err := failover(s.c, s.kv)
		s.close()
		if err != nil {
			return nil, 0, nil, err
		}
		fails = append(fails, ms(d))
	}
	return s, medianF(setups), fails, nil
}

// failover crashes the cluster's agreed leader and returns the time from
// the crash to the acknowledgement of a Put sent right after it: the
// store's time without service. The store is discarded afterwards, so
// the Put bypasses the key model.
func failover(c *omegasm.Cluster, kv *omegasm.KV) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	leader, ok := c.WaitForAgreementContext(ctx)
	if !ok {
		return 0, fmt.Errorf("failover: no agreed leader")
	}
	t0 := time.Now()
	if err := c.Crash(leader); err != nil {
		return 0, fmt.Errorf("failover: %w", err)
	}
	if err := kv.Put(ctx, 1, 1); err != nil {
		return 0, fmt.Errorf("failover: first Put after the crash: %w", err)
	}
	return time.Since(t0), nil
}

// closedResult is what the closed loop measured.
type closedResult struct {
	lat     []time.Duration   // acknowledged within the window, retries included
	secs    [][]time.Duration // the same, per client and one-second window
	perSec  []float64         // acknowledged Puts per one-second window
	stalls  int               // attempts abandoned at opDeadline and sent again
	failed  int               // Puts that failed
	objects uint64            // heap allocations during the window
	bytes   uint64
}

// stallWatch abandons a client's Put attempt once it has run opDeadline:
// the client's context is cancelled and replaced, so the deadline costs
// no allocation on the Puts that meet it.
type stallWatch struct {
	mu     sync.Mutex
	since  time.Time // start of the Put in flight, zero when none
	ctx    context.Context
	cancel context.CancelFunc
}

func (w *stallWatch) begin(parent context.Context) context.Context {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ctx == nil || w.ctx.Err() != nil {
		w.ctx, w.cancel = context.WithCancel(parent)
	}
	w.since = time.Now()
	return w.ctx
}

func (w *stallWatch) end() {
	w.mu.Lock()
	w.since = time.Time{}
	w.mu.Unlock()
}

// check cancels the attempt in flight if it has run past opDeadline.
func (w *stallWatch) check(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.since.IsZero() && now.Sub(w.since) > opDeadline {
		w.cancel()
	}
}

// closedLoop runs pcClients clients for d, each Putting its own keys in
// a seeded order. Every attempt carries opDeadline (checked every
// millisecond): one still running then is abandoned and the Put is sent
// again, as in the open loop; a Put not acknowledged within opGiveUp
// fails. A Put still in flight when the window closes counts neither as
// acknowledged nor as failed.
func closedLoop(m *keyModel, put func(ctx context.Context, key, val uint16) error, seed int64, d time.Duration) closedResult {
	window, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	per := pcKeys / pcClients
	lats := make([][]time.Duration, pcClients)
	// marks[c][k] is how many Puts client c had acknowledged before
	// second k of the window.
	marks := make([][]int, pcClients)
	fails := make([]int, pcClients)
	stalls := make([]int, pcClients)
	watches := make([]stallWatch, pcClients)
	ac := newAllocCounter()
	o0, b0 := ac.read()
	begin := time.Now()
	end := begin.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < pcClients; c++ {
		order := rand.New(rand.NewSource(seed*31 + int64(c))).Perm(per)
		lats[c] = make([]time.Duration, 0, 1<<20)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &watches[c]
			for i := 0; ; i++ {
				key := uint16(c*per + order[i%per])
				t0 := time.Now()
				var err error
				for {
					ctx := w.begin(window)
					err = m.put(ctx, key, put)
					w.end()
					if window.Err() != nil || !errors.Is(err, context.Canceled) || time.Since(t0) >= opGiveUp {
						break
					}
					stalls[c]++
				}
				t1 := time.Now()
				switch {
				case t1.After(end) || window.Err() != nil:
					return // in flight at the window's end: not counted
				case err != nil:
					fails[c]++
				default:
					for len(marks[c]) <= int(t1.Sub(begin)/time.Second) {
						marks[c] = append(marks[c], len(lats[c]))
					}
					lats[c] = append(lats[c], t1.Sub(t0))
				}
			}
		}(c)
	}
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-window.Done():
				return
			case now := <-tick.C:
				for c := range watches {
					watches[c].check(now)
				}
			}
		}
	}()
	wg.Wait()
	<-watchDone
	o1, b1 := ac.read()
	var r closedResult
	secs := int(d / time.Second)
	r.perSec = make([]float64, secs)
	for c := range lats {
		for len(marks[c]) <= secs {
			marks[c] = append(marks[c], len(lats[c]))
		}
		for k := 0; k < secs; k++ {
			r.secs = append(r.secs, lats[c][marks[c][k]:marks[c][k+1]])
			r.perSec[k] += float64(marks[c][k+1] - marks[c][k])
		}
		r.lat = append(r.lat, lats[c]...)
		r.failed += fails[c]
		r.stalls += stalls[c]
	}
	r.objects, r.bytes = o1-o0, b1-b0
	return r
}

func runPutClosed(o opts) (*report, error) {
	rep := &report{}
	m := newKeyModel(pcKeys)
	s, setupS, fails, err := setupMedian(pcSetups, func() (*kvSetup, error) {
		return setupKV(m, 0)
	})
	if err != nil {
		return nil, err
	}
	defer func() { s.close() }()
	window := time.Duration(o.seconds) * time.Second
	if o.trace {
		return tracePutClosed(o, rep, m, s, window)
	}
	// The window is split over pcStores fresh stores, each written to and
	// read back in turn: a store's speed depends on its own map seeds and
	// memory layout, so the medians below are over stores too.
	var r closedResult
	var reads []time.Duration
	stores := max(1, min(pcStores, o.seconds))
	for i := 0; i < stores; i++ {
		if i > 0 {
			s.close()
			m = newKeyModel(pcKeys)
			if s, err = setupKV(m, 0); err != nil {
				return nil, err
			}
		}
		ri := closedLoop(m, s.kv.Put, o.seed*pcStores+int64(i), window/time.Duration(stores))
		r.lat = append(r.lat, ri.lat...)
		r.secs = append(r.secs, ri.secs...)
		r.perSec = append(r.perSec, ri.perSec...)
		r.stalls += ri.stalls
		r.failed += ri.failed
		r.objects += ri.objects
		r.bytes += ri.bytes
		pr, unanswered := m.readback(func(uint16) *omegasm.KV { return s.kv }, pcPasses, rep)
		reads = append(reads, pr...)
		rep.attempted += unanswered
		rep.failed += unanswered
	}
	done := len(r.lat)
	rep.attempted += done + r.failed
	rep.failed += r.failed
	if done == 0 {
		return nil, fmt.Errorf("no Put acknowledged in the window")
	}
	put, err := groupQuantiles(r.secs)
	if err != nil {
		return nil, err
	}
	r.lat, r.secs = nil, nil // the heap figure below is the store's, not the samples'
	rate := medianF(r.perSec)
	rep.add("setup_s", "s", setupS, fmt.Sprintf("median of %d set-ups", pcSetups))
	addLatency(rep, false, put, "median of one-second windows")
	addReadback(rep, reads, "idle store after the load")
	rep.add("put_per_s", "1/s", rate, fmt.Sprintf("median of one-second windows; %d acked in %v on %d stores, %d attempts retried after %v", done, window, stores, r.stalls, opDeadline))
	rep.add("unavailable_ms", "ms", trimmedMeanF(fails), fmt.Sprintf("leader crash -> first ack, trimmed mean over %d discarded set-ups", len(fails)))
	rep.add("allocs_per_op", "count", float64(r.objects)/float64(done), "")
	rep.add("bytes_per_op", "B", float64(r.bytes)/float64(done), "")
	rep.add("heap_mb", "MiB", liveHeapMB(), "live heap after GC, store open")
	return rep, nil
}
