package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"omegasm"
	"omegasm/load"
)

// Every traced run has three parts: an untraced segment (the reference
// for trace.overhead_pct), a traced segment on the public store (spans
// around the public calls, samplers on its observability surface) and the
// layer ladder on the reference stack. It checks outputs like the
// untraced run.

// spanRecorderCap bounds the spans one traced run keeps in memory.
const spanRecorderCap = 1 << 20

// commonMicro sets the register and election-step costs measured in
// isolation.
func commonMicro(ly *layers) (readNs, writeNs float64) {
	readNs, writeNs = microShmem()
	ly.set("shmem.read_ns", readNs, "uncounted atomic register, tight loop")
	ly.set("shmem.write_ns", writeNs, "uncounted atomic register, tight loop")
	ly.set("core.step_allocs", microCoreStep(), "Algorithm 1 step, isolated")
	return readNs, writeNs
}

// overhead returns (traced - untraced) / untraced in percent.
func overhead(untraced, traced time.Duration) float64 {
	return 100 * (float64(traced) - float64(untraced)) / float64(untraced)
}

func tracePutClosed(o opts, rep *report, m *keyModel, s *kvSetup, window time.Duration) (*report, error) {
	ly := newLayers()
	readNs, writeNs := commonMicro(ly)
	seg := func(share float64) time.Duration { return time.Duration(share * float64(window)) }

	u := closedLoop(m, s.kv.Put, o.seed, seg(0.3))

	rec := newRecorder(spanRecorderCap)
	smp := startSampler([]*omegasm.Cluster{s.c}, []*omegasm.KV{s.kv})
	var reqs atomic.Int64
	traced := func(ctx context.Context, key, val uint16) error {
		id := reqs.Add(1)
		if id%traceEvery != 0 {
			return s.kv.Put(ctx, key, val)
		}
		t0 := rec.now()
		err := s.kv.Put(ctx, key, val)
		rec.add("kv.put", t0, rec.now(), -1, id)
		return err
	}
	t := closedLoop(m, traced, o.seed+1, seg(0.35))
	smp.finish()
	for _, r := range []closedResult{u, t} {
		rep.attempted += len(r.lat) + r.failed
		rep.failed += r.failed
	}
	if len(u.lat) == 0 || len(t.lat) == 0 {
		return nil, fmt.Errorf("no Put acknowledged in a traced-run segment")
	}

	lad, err := newLadder(ladderConfig{batch: 1, keys: pcKeys}, rec)
	if err != nil {
		return nil, err
	}
	c0 := lad.counts()
	lr := closedLoop(newKeyModel(pcKeys), lad.put, o.seed, seg(0.35))
	c1 := lad.counts()
	lad.close()

	reads, unanswered := m.readback(func(uint16) *omegasm.KV { return s.kv }, pcPasses, rep)
	rep.attempted += unanswered
	rep.failed += unanswered

	publicVsLadder(ly, t.lat, lad, "traced segment")
	pa, pb := perOp(t.objects, t.bytes, len(t.lat))
	la, lb := perOp(lr.objects, lr.bytes, len(lr.lat))
	ly.set("kv.put_allocs", pa-la, fmt.Sprintf("public %.2f minus ladder %.2f allocs per Put", pa, la))
	ly.set("kv.put_bytes", pb-lb, fmt.Sprintf("public %.0f minus ladder %.0f B per Put", pb, lb))
	ly.set("kv.put_stalls", float64(u.stalls+t.stalls), fmt.Sprintf("Put attempts abandoned at the %v deadline and retried, both public segments", opDeadline))
	ly.set("kv.read_lease_ns", float64(newDist(reads).rank(0.5)), "ReadLease readback, median of timed passes")
	smp.publicCounters(ly, len(t.lat))
	ladderLayers(ly, lad, c0, c1, readNs, writeNs)
	ly.set("trace.overhead_pct", overhead(newDist(u.lat).rank(0.5), newDist(t.lat).rank(0.5)), "put p50, traced vs untraced segment")
	writeSpans(o, rec)
	ly.emit(rep)
	return rep, nil
}

// publicVsLadder sets the public Put's p50 and what the public KV layer
// adds over the ladder's submit -> ack: at the p50 (kv.put_self_us) and
// in the trimmed mean (split.kv_us). pub are the public Put call times
// comparable with the ladder's; where says which.
func publicVsLadder(ly *layers, pub []time.Duration, lad *ladder, where string) {
	p50, ladP50 := newDist(pub).rank(0.5), newDist(lad.lat).rank(0.5)
	ly.set("kv.put_us", us(p50), fmt.Sprintf("p50 public Put, %s, n=%d", where, len(pub)))
	ly.set("kv.put_self_us", us(p50-ladP50), fmt.Sprintf("public p50 minus ladder submit->ack p50 %.2f us", us(ladP50)))
	ly.set("split.kv_us", us(trimmedMean(pub)-trimmedMean(lad.lat)), "public mean minus ladder mean, both up to p99")
}

// perOp divides allocation deltas by completed operations.
func perOp(objects, bytes uint64, ops int) (float64, float64) {
	return float64(objects) / float64(ops), float64(bytes) / float64(ops)
}

func traceMixedOpen(o opts, rep *report, m *keyModel, s *shardedSetup) (*report, error) {
	ly := newLayers()
	readNs, writeNs := commonMicro(ly)
	secs := float64(time.Duration(o.seconds) * time.Second)
	checks := &checkLog{}
	plain := moOp(s.skv, m, checks)
	play := func(idx int, share float64, op func(start time.Time) openOp) (*openResult, error) {
		d := time.Duration(share * secs)
		spec := moSpec(o.seed, idx, d)
		sched, err := spec.Schedule()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		return runOpen(start, sched, d, op(start)), nil
	}
	untracedOp := func(time.Time) openOp { return plain }
	w, err := play(0, moWarmShare, untracedOp)
	if err != nil {
		return nil, err
	}
	u, err := play(1, 0.25, untracedOp)
	if err != nil {
		return nil, err
	}

	rec := newRecorder(spanRecorderCap)
	kvs := []*omegasm.KV{s.skv.Shard(0), s.skv.Shard(1)}
	cs := []*omegasm.Cluster{s.skv.Fleet().Cluster(0), s.skv.Fleet().Cluster(1)}
	smp := startSampler(cs, kvs)
	var fallbacks, leaseReads, putStalls atomic.Int64
	var shardN [moShards]atomic.Int64
	readNsAll := make([]time.Duration, 0, 1<<16)
	putAll := make([]time.Duration, 0, 1<<14)
	var latMu sync.Mutex
	tracedOp := func(start time.Time) openOp {
		return func(ctx context.Context, i int, r load.Request) error {
			sent := rec.now()
			due := int64(start.Add(r.At).Sub(rec.epoch))
			root := rec.add("load.dispatch", due, sent, -1, int64(i))
			t0 := rec.now()
			sh := s.skv.ShardFor(r.Key)
			t1 := rec.now()
			route := rec.add("shardedkv.route", t0, t1, root, int64(i))
			shardN[sh].Add(1)
			kv := s.skv.Shard(sh)
			var err error
			if r.Read {
				if _, ok := kv.LeaseHolder(); !ok {
					fallbacks.Add(1)
				}
				leaseReads.Add(1)
				floor := m.readFloor(r.Key)
				c0 := rec.now()
				v, ok, rerr := kv.Read(ctx, r.Key, omegasm.ReadLease)
				c1 := rec.now()
				rec.add("kv.read", c0, c1, route, int64(i))
				latMu.Lock()
				readNsAll = append(readNsAll, time.Duration(c1-c0))
				latMu.Unlock()
				if err = rerr; err == nil {
					if cerr := m.checkRead(r.Key, floor, v, ok); cerr != nil {
						checks.add(cerr)
					}
				}
			} else {
				c0 := rec.now()
				err = m.put(ctx, r.Key, kv.Put)
				c1 := rec.now()
				rec.add("kv.put", c0, c1, route, int64(i))
				if errors.Is(err, context.DeadlineExceeded) {
					putStalls.Add(1)
				}
				if err == nil {
					latMu.Lock()
					putAll = append(putAll, time.Duration(c1-c0))
					latMu.Unlock()
				}
			}
			return err
		}
	}
	t, err := play(2, 0.25, tracedOp)
	if err != nil {
		return nil, err
	}
	smp.finish()
	for _, r := range []*openResult{w, u, t} {
		_, _, failed := r.split()
		rep.attempted += len(r.ops)
		rep.failed += failed
	}

	// The ladder replays the measured phase's writes on one shard-shaped
	// stack (n=3, the ShardedKV default batch).
	lad, err := newLadder(ladderConfig{batch: omegasm.DefaultBatchSize, keys: moKeys}, rec)
	if err != nil {
		return nil, err
	}
	ld := time.Duration(0.3 * secs)
	spec := moSpec(o.seed, 1, ld)
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	var writes []load.Request
	for _, r := range sched {
		if !r.Read {
			writes = append(writes, r)
		}
	}
	lm := newKeyModel(moKeys)
	c0 := lad.counts()
	runOpen(time.Now(), writes, ld, func(ctx context.Context, i int, r load.Request) error {
		return lm.put(ctx, r.Key, lad.put)
	})
	c1 := lad.counts()
	lad.close()

	for _, err := range checks.errs() {
		rep.violation("%v", err)
	}
	_, unanswered := m.readback(func(k uint16) *omegasm.KV { return s.skv.Shard(s.skv.ShardFor(k)) }, 0, rep)
	rep.attempted += unanswered
	rep.failed += unanswered

	ly.set("load.late_p50_us", us(t.lateQ(0.5)), "generator lateness, traced phase, median of sub-windows")
	ly.set("load.late_p99_us", us(t.lateQ(0.99)), "")
	ly.set("load.inflight_max", float64(t.inflightMax), "")
	ly.set("shardedkv.route_ns", microRoute(s.skv), "ShardFor, tight loop")
	var most, total int64
	for i := range shardN {
		n := shardN[i].Load()
		total += n
		if n > most {
			most = n
		}
	}
	ly.set("shardedkv.shard_skew", float64(most)/(float64(total)/moShards), "busiest shard's requests / mean")
	publicVsLadder(ly, putAll, lad, "Shard(i).Put calls")
	ly.set("kv.put_stalls", float64(putStalls.Load()), fmt.Sprintf("Put attempts abandoned at the %v deadline, traced phase", opDeadline))
	ly.set("kv.read_lease_ns", float64(newDist(readNsAll).rank(0.5)), "p50 ReadLease call")
	ly.set("kv.read_fallback_share", float64(fallbacks.Load())/float64(leaseReads.Load()),
		"ReadLease calls made while LeaseHolder was not ok")
	smp.publicCounters(ly, len(putAll))
	ladderLayers(ly, lad, c0, c1, readNs, writeNs)
	uAll, tAll := allP50(u), allP50(t)
	ly.set("trace.overhead_pct", overhead(uAll, tAll), "all-op p50, traced vs untraced phase")
	writeSpans(o, rec)
	ly.emit(rep)
	return rep, nil
}

// allP50 is the all-op median of a phase's completed requests.
func allP50(r *openResult) time.Duration {
	var xs []time.Duration
	for _, op := range r.ops {
		if op.lat >= 0 {
			xs = append(xs, op.lat)
		}
	}
	return newDist(xs).rank(0.5)
}

// routeSink keeps the timed routing from being optimized away.
var routeSink int

// microRoute times ShardFor.
func microRoute(skv *omegasm.ShardedKV) float64 {
	const ops = 1 << 20
	sum := 0
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sum += skv.ShardFor(uint16(i % moKeys))
	}
	routeSink = sum
	return float64(time.Since(t0)) / ops
}

func traceSANFailover(o opts, rep *report, sh sfShape) (*report, error) {
	ly := newLayers()
	commonMicro(ly)
	sanR, sanW, err := microSAN()
	if err != nil {
		return nil, err
	}
	ly.set("san.read_us", sanR, "quorum register read, 3 ideal disks")
	ly.set("san.write_us", sanW, "quorum register write, 3 ideal disks")
	// A third of --seconds of untraced episodes, then as many traced ones.
	half := max(1, int(time.Duration(o.seconds)*time.Second/sh.window)/3)
	var untraced []*episode
	for e := 0; e < half; e++ {
		ep, err := runEpisode(o, e, sh, episodeHooks{}, rep)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, ep)
	}
	rec := newRecorder(spanRecorderCap)
	var smps []*sampler
	// Per traced episode, each acked Put's scheduled arrival and call time.
	type timedPut struct{ at, lat time.Duration }
	var perEp [][]timedPut
	var latMu sync.Mutex
	hooks := episodeHooks{
		watch: watchCrash,
		op: func(s *kvSetup, m *keyModel) openOp {
			smps = append(smps, startSampler([]*omegasm.Cluster{s.c}, []*omegasm.KV{s.kv}))
			perEp = append(perEp, nil)
			ep := len(perEp) - 1
			return func(ctx context.Context, i int, r load.Request) error {
				c0 := rec.now()
				err := m.put(ctx, r.Key, s.kv.Put)
				c1 := rec.now()
				rec.add("kv.put", c0, c1, -1, int64(i))
				if err == nil {
					latMu.Lock()
					perEp[ep] = append(perEp[ep], timedPut{r.At, time.Duration(c1 - c0)})
					latMu.Unlock()
				}
				return err
			}
		},
		after: func(*kvSetup) { smps[len(smps)-1].finish() },
	}
	var traced []*episode
	for e := half; e < 2*half; e++ {
		ep, err := runEpisode(o, e, sh, hooks, rep)
		if err != nil {
			return nil, err
		}
		traced = append(traced, ep)
	}
	for _, ep := range append(append([]*episode(nil), untraced...), traced...) {
		_, _, failed := ep.res.split()
		rep.attempted += len(ep.res.ops) + ep.unanswered
		rep.failed += failed + ep.unanswered
	}

	lad, err := newLadder(ladderConfig{san: true, batch: 1, keys: sfKeys}, rec)
	if err != nil {
		return nil, err
	}
	ld := 2 * sh.window
	spec := sfSpec(o.seed, 99, ld)
	sched, err := spec.Schedule()
	if err != nil {
		return nil, err
	}
	lm := newKeyModel(sfKeys)
	c0 := lad.counts()
	lr := runOpen(time.Now(), sched, ld, func(ctx context.Context, i int, r load.Request) error {
		return lm.put(ctx, r.Key, lad.put)
	})
	c1 := lad.counts()
	lad.close()

	var agree, dark []float64
	for _, ep := range traced {
		if w := ep.watch; w != nil {
			if w.agreeOK {
				agree = append(agree, ms(w.agree))
			}
			if w.darkOK {
				dark = append(dark, ms(w.dark))
			}
		}
	}
	ly.set("omega.agree_ms", medianF(agree), fmt.Sprintf("crash -> AgreedLeader names a live process, median of %d", len(agree)))
	ly.set("lease.dark_ms", medianF(dark), fmt.Sprintf("crash -> a live LeaseHolder, median of %d", len(dark)))
	var lates, late99 []float64
	inflight := int64(0)
	for _, ep := range traced {
		lates = append(lates, us(ep.res.lateQ(0.5)))
		late99 = append(late99, us(ep.res.lateQ(0.99)))
		if ep.res.inflightMax > inflight {
			inflight = ep.res.inflightMax
		}
	}
	ly.set("load.late_p50_us", medianF(lates), "generator lateness, traced episodes")
	ly.set("load.late_p99_us", medianF(late99), "")
	ly.set("load.inflight_max", float64(inflight), "")
	// The public Put is compared with the crash-free ladder on the steady
	// state before each crash; counts and stalls cover whole episodes.
	var putAll, steady []time.Duration
	for j, ep := range traced {
		for _, p := range perEp[j] {
			putAll = append(putAll, p.lat)
			if p.at < ep.crash {
				steady = append(steady, p.lat)
			}
		}
	}
	publicVsLadder(ly, steady, lad, "KV.Put calls before the crash")
	var to, tb uint64
	for _, ep := range traced {
		to += ep.allocs[0] - ep.res.o0
		tb += ep.allocs[1] - ep.res.b0
	}
	ta, tbb := perOp(to, tb, len(steady))
	la, lb := perOp(lr.objects, lr.bytes, len(lad.lat))
	ly.set("kv.put_allocs", ta-la, fmt.Sprintf("public %.2f (before the crash) minus ladder %.2f allocs per Put", ta, la))
	ly.set("kv.put_bytes", tbb-lb, fmt.Sprintf("public %.0f (before the crash) minus ladder %.0f B per Put", tbb, lb))
	stalls := int64(0)
	for _, ep := range traced {
		stalls += ep.res.retries.Load()
	}
	ly.set("kv.put_stalls", float64(stalls), fmt.Sprintf("Put attempts abandoned at the %v deadline and retried, traced episodes", opDeadline))
	acked := len(putAll)
	merged := &sampler{}
	for _, s := range smps {
		merged.c0 = append(merged.c0, s.c0...)
		merged.c1 = append(merged.c1, s.c1...)
		merged.samples += s.samples
		merged.leaseOK += s.leaseOK
		merged.changes += s.changes
	}
	merged.publicCounters(ly, acked)
	var reads []time.Duration
	for _, ep := range traced {
		reads = append(reads, ep.reads...)
	}
	ly.set("kv.read_lease_ns", float64(newDist(reads).rank(0.5)), "ReadLease readback after failover, median of timed passes")
	sanReadNs, sanWriteNs := sanR*1e3, sanW*1e3
	ladderLayers(ly, lad, c0, c1, sanReadNs, sanWriteNs)
	regs := c1.regs.sub(c0.regs)
	rr, rw := regs.sum()
	ly.set("san.ops_per_put", float64(rr+rw)/float64(len(lad.lat)), "quorum register accesses per ladder Put, all layers")
	ut, err := groupQuantiles(putGroups(untraced))
	if err != nil {
		return nil, err
	}
	tt, err := groupQuantiles(putGroups(traced))
	if err != nil {
		return nil, err
	}
	ly.set("trace.overhead_pct", overhead(ut.p50, tt.p50), "put p50, traced vs untraced episodes")
	writeSpans(o, rec)
	ly.emit(rep)
	return rep, nil
}

// putGroups returns each episode's acknowledged Put latencies.
func putGroups(eps []*episode) [][]time.Duration {
	var g [][]time.Duration
	for _, ep := range eps {
		_, puts, _ := ep.res.split()
		g = append(g, puts)
	}
	return g
}
