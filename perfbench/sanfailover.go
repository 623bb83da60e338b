package main

import (
	"context"
	"fmt"
	"time"

	"omegasm"
	"omegasm/load"
)

// san-failover: open-loop acknowledged Puts at a fixed rate well below
// SAN capacity on a SAN-backed n=3 KV (3 ideal disks, default SAN
// pacing). Each episode builds a fresh cluster and crashes its agreed
// leader once, part-way through its arrivals.
const (
	sfRate = 1000
	sfKeys = 256
	// sfPasses is how many ReadLease passes each episode's readback times.
	sfPasses = 8
)

// sfShape is an episode's arrival window and when in it the leader
// crashes.
type sfShape struct{ window, crash time.Duration }

// sfEpisode ends every episode, its readback included, well before the
// SAN wedge (README.md): the survivors of a crash stop committing some
// 750-1000 slots after it, and an episode uses about 300 (Puts) + 256
// (readback quorum reads) after its crash.
var sfEpisode = sfShape{window: 600 * time.Millisecond, crash: 300 * time.Millisecond}

// sfWedge is the san-wedge workload's episode, which runs into the wedge:
// it reproduces the defect and is not one of the benchmark's workloads.
var sfWedge = sfShape{window: 2 * time.Second, crash: 800 * time.Millisecond}

func sfOptions(seed int64, episode int) omegasm.Option {
	return omegasm.WithSAN(omegasm.SANConfig{Disks: 3, Seed: seed*100 + int64(episode) + 1})
}

func sfSpec(seed int64, episode int, d time.Duration) load.Spec {
	return load.Spec{
		Name:     "san-failover",
		Clients:  1,
		Duration: d,
		Seed:     seed*1000 + int64(episode),
		Rate:     sfRate,
		Process:  load.Poisson,
		Keys:     sfKeys,
		Classes:  []load.Class{{Name: "interactive", Weight: 1, SLO: slo}},
	}
}

// episode is one fresh-cluster failover.
type episode struct {
	res        *openResult
	crash      time.Duration // crash instant, offset from the phase start
	allocs     [2]uint64     // allocation counters (objects, bytes) at the crash
	victim     int
	setup      time.Duration
	reads      []time.Duration // readback time per ReadLease read, per pass
	unanswered int             // readback reads that could not answer
	heapMB     float64         // live heap with the episode's store open
	watch      *crashWatch     // traced runs only
}

// unavailable returns crash -> first acknowledged Put among the Puts
// sent after the crash.
func (e *episode) unavailable() (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for i, op := range e.res.ops {
		sent := e.res.sched[i].At + e.res.late[i]
		if op.lat < 0 || sent < e.crash {
			continue
		}
		if d := e.res.sched[i].At + op.lat - e.crash; !ok || d < best {
			best, ok = d, true
		}
	}
	return best, ok
}

// episodeHooks let a traced run observe an episode: watch runs from the
// crash on, op replaces the plain model Put, after runs once the arrivals
// are done.
type episodeHooks struct {
	watch func(s *kvSetup, crash time.Time, victim int) *crashWatch
	op    func(s *kvSetup, m *keyModel) openOp
	after func(s *kvSetup)
}

// runEpisode builds a SAN store, plays one episode's arrivals and crashes
// the agreed leader as its shape says.
func runEpisode(o opts, e int, sh sfShape, h episodeHooks, rep *report) (*episode, error) {
	m := newKeyModel(sfKeys)
	s, err := setupKV(m, 0, sfOptions(o.seed, e))
	if err != nil {
		return nil, fmt.Errorf("episode %d: %w", e, err)
	}
	defer s.close()
	spec := sfSpec(o.seed, e, sh.window)
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	do := func(ctx context.Context, i int, r load.Request) error {
		return m.put(ctx, r.Key, s.kv.Put)
	}
	if h.op != nil {
		do = h.op(s, m)
	}
	ep := &episode{setup: s.setup, crash: sh.crash}
	start := time.Now()
	crashed := make(chan error, 1)
	go func() {
		time.Sleep(time.Until(start.Add(ep.crash)))
		leader, ok := s.c.AgreedLeader()
		for !ok {
			time.Sleep(100 * time.Microsecond)
			leader, ok = s.c.AgreedLeader()
		}
		ep.allocs[0], ep.allocs[1] = newAllocCounter().read()
		at := time.Now()
		ep.crash, ep.victim = at.Sub(start), leader
		err := s.c.Crash(leader)
		if err == nil && h.watch != nil {
			ep.watch = h.watch(s, at, leader)
		}
		crashed <- err
	}()
	ep.res = runOpen(start, sched, sh.window, do)
	if err := <-crashed; err != nil {
		return nil, fmt.Errorf("episode %d: crash: %w", e, err)
	}
	if h.after != nil {
		h.after(s)
	}
	ep.reads, ep.unanswered = m.readback(func(uint16) *omegasm.KV { return s.kv }, sfPasses, rep)
	ep.heapMB = liveHeapMB()
	return ep, nil
}

func runSANFailover(o opts) (*report, error) { return runEpisodes(o, sfEpisode) }

// runSANWedge runs san-failover's episodes in the sfWedge shape.
func runSANWedge(o opts) (*report, error) { return runEpisodes(o, sfWedge) }

// runEpisodes plays --seconds of episodes of shape sh.
func runEpisodes(o opts, sh sfShape) (*report, error) {
	rep := &report{}
	if o.trace {
		return traceSANFailover(o, rep, sh)
	}
	n := max(1, int(time.Duration(o.seconds)*time.Second/sh.window))
	var eps []*episode
	for e := 0; e < n; e++ {
		ep, err := runEpisode(o, e, sh, episodeHooks{}, rep)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}
	return rep, sfReport(rep, eps)
}

// sfReport adds the end-to-end metrics of the episodes. Put latencies
// and allocations are the steady state before each crash (medians over
// episodes); the crash itself is measured by unavailable_ms.
func sfReport(rep *report, eps []*episode) error {
	var reads []time.Duration // per-pass readback times of all episodes
	var steadyPuts [][]time.Duration
	var setups, unavail, heaps []float64
	var objects, bytes uint64
	var window time.Duration
	done, steadyDone := 0, 0
	for e, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		heaps = append(heaps, ep.heapMB)
		u, ok := ep.unavailable()
		if !ok {
			return fmt.Errorf("episode %d: no Put acknowledged after the crash", e)
		}
		unavail = append(unavail, ms(u))
		reads = append(reads, ep.reads...)
		_, puts, failed := ep.res.split()
		rep.attempted += len(ep.res.ops) + ep.unanswered
		rep.failed += failed + ep.unanswered
		done += len(puts)
		window += ep.res.window
		var pre []time.Duration
		for i, op := range ep.res.ops {
			if ep.res.sched[i].At >= ep.crash {
				break
			}
			if op.lat >= 0 {
				pre = append(pre, op.lat)
			}
		}
		steadyDone += len(pre)
		steadyPuts = append(steadyPuts, pre)
		objects += ep.allocs[0] - ep.res.o0
		bytes += ep.allocs[1] - ep.res.b0
		logf("episode %d: crashed leader %d at %v, first ack %.1f ms later; %d puts, %d failed, %d attempts retried; %d readback reads unanswered",
			e, ep.victim, ep.crash.Round(time.Millisecond), ms(u), len(ep.res.ops), failed, ep.res.retries.Load(), ep.unanswered)
	}
	pt, err := groupQuantiles(steadyPuts)
	if err != nil {
		return fmt.Errorf("put latency: %w", err)
	}
	addLatency(rep, false, pt, "before the crash, median over episodes")
	addReadback(rep, reads, "after each failover")
	rep.add("setup_s", "s", medianF(setups), fmt.Sprintf("median of %d SAN set-ups", len(eps)))
	rep.add("put_per_s", "1/s", float64(done)/window.Seconds(), "acked Puts/s over whole episodes")
	rep.add("unavailable_ms", "ms", trimmedMeanF(unavail), fmt.Sprintf("crash -> first ack, trimmed mean of %d crashes", len(eps)))
	rep.add("allocs_per_op", "count", float64(objects)/float64(steadyDone), "before the crash, incl. generator")
	rep.add("bytes_per_op", "B", float64(bytes)/float64(steadyDone), "before the crash, incl. generator")
	rep.add("heap_mb", "MiB", medianF(heaps), "live heap after GC at each episode's end, median")
	return nil
}
