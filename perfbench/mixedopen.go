package main

import (
	"context"
	"fmt"
	"time"

	"omegasm"
	"omegasm/load"
)

// mixed-open: one open-loop Poisson generator against a 2-shard x n=3
// atomic ShardedKV with default options; Zipf(1.2) keys over 1024; 80%
// ReadLease reads, 20% acknowledged Puts.
const (
	moShards   = 2
	moKeys     = 1024
	moSetups   = 61
	moReadFrac = 0.8
	moZipf     = 1.2
	// moRate is the offered rate (req/s), below the knee of store plus
	// generator on a 2-vCPU host.
	moRate = 10000
	// moWarmShare is the share of --seconds played unmeasured first.
	moWarmShare = 0.1
)

// moSpec is the workload's arrival plan for one phase of a run.
func moSpec(seed int64, phase int, d time.Duration) load.Spec {
	return load.Spec{
		Name:         "mixed-open",
		Clients:      1,
		Duration:     d,
		Seed:         seed*1000 + int64(phase),
		Rate:         moRate,
		Process:      load.Poisson,
		Keys:         moKeys,
		ZipfS:        moZipf,
		ReadFraction: moReadFrac,
		Classes:      []load.Class{{Name: "interactive", Weight: 1, SLO: slo}},
	}
}

type shardedSetup struct {
	skv   *omegasm.ShardedKV
	setup time.Duration
}

func setupSharded(m *keyModel) (*shardedSetup, error) {
	t0 := time.Now()
	skv, err := omegasm.NewShardedKV(omegasm.WithN(3), omegasm.WithShards(moShards))
	if err != nil {
		return nil, err
	}
	if err := skv.Start(); err != nil {
		skv.Close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// One first write per shard: the store serves when every shard does.
	for sh := 0; sh < moShards; sh++ {
		key := firstKeyOf(skv, sh)
		if err := m.put(ctx, key, skv.Shard(sh).Put); err != nil {
			skv.Close()
			return nil, fmt.Errorf("first write to shard %d: %w", sh, err)
		}
	}
	return &shardedSetup{skv: skv, setup: time.Since(t0)}, nil
}

// firstKeyOf returns the hottest workload key routed to shard sh.
func firstKeyOf(skv *omegasm.ShardedKV, sh int) uint16 {
	for k := 0; k < moKeys; k++ {
		if skv.ShardFor(uint16(k)) == sh {
			return uint16(k)
		}
	}
	return 0
}

// moOp serves one mixed-open request through the routed shard: a
// ReadLease read checked against the model, or a Put through the model.
func moOp(skv *omegasm.ShardedKV, m *keyModel, rep *checkLog) openOp {
	return func(ctx context.Context, i int, r load.Request) error {
		kv := skv.Shard(skv.ShardFor(r.Key))
		if !r.Read {
			return m.put(ctx, r.Key, kv.Put)
		}
		floor := m.readFloor(r.Key)
		v, ok, err := kv.Read(ctx, r.Key, omegasm.ReadLease)
		if err != nil {
			return err
		}
		if err := m.checkRead(r.Key, floor, v, ok); err != nil {
			rep.add(err)
		}
		return nil
	}
}

func runMixedOpen(o opts) (*report, error) {
	rep := &report{}
	m := newKeyModel(moKeys)
	// Every set-up but the last is discarded after one failover of shard
	// 0, as in put-closed.
	var setups, fails []float64
	var s *shardedSetup
	for i := 0; i < moSetups; i++ {
		var err error
		if s, err = setupSharded(m); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == moSetups-1 {
			break
		}
		d, err := failover(s.skv.Fleet().Cluster(0), s.skv.Shard(0))
		s.skv.Close()
		if err != nil {
			return nil, err
		}
		fails = append(fails, ms(d))
	}
	defer s.skv.Close()
	if o.trace {
		return traceMixedOpen(o, rep, m, s)
	}
	checks := &checkLog{}
	ref, err := moPlay(o, moOp(s.skv, m, checks), rep)
	if err != nil {
		return nil, err
	}
	for _, err := range checks.errs() {
		rep.violation("%v", err)
	}
	_, unanswered := m.readback(func(k uint16) *omegasm.KV { return s.skv.Shard(s.skv.ShardFor(k)) }, 0, rep)
	_, puts, failed := ref.split()
	rep.attempted += len(ref.ops) + unanswered
	rep.failed += failed + unanswered
	for _, read := range []bool{false, true} {
		t, err := ref.latencies(read)
		if err != nil {
			return nil, err
		}
		addLatency(rep, read, t, "median of sub-windows")
	}
	done := len(ref.ops) - failed
	rep.add("setup_s", "s", medianF(setups), fmt.Sprintf("median of %d set-ups", moSetups))
	rep.add("put_per_s", "1/s", float64(len(puts))/ref.window.Seconds(), fmt.Sprintf("acked Puts/s; %d attempts retried after %v", ref.retries.Load(), opDeadline))
	rep.add("unavailable_ms", "ms", trimmedMeanF(fails), fmt.Sprintf("shard 0 leader crash -> first ack, trimmed mean over %d discarded set-ups", len(fails)))
	rep.add("allocs_per_op", "count", float64(ref.objects)/float64(done), "incl. generator")
	rep.add("bytes_per_op", "B", float64(ref.bytes)/float64(done), "incl. generator")
	rep.add("heap_mb", "MiB", liveHeapMB(), "live heap after GC, store open")
	return rep, nil
}

// moPlay plays a warm-up, whose requests count only in rep's attempted
// and failed, and then the measured phase at moRate; the phase is an
// error if its generator fell behind.
func moPlay(o opts, op openOp, rep *report) (*openResult, error) {
	secs := float64(time.Duration(o.seconds) * time.Second)
	play := func(phase int, share float64) (*openResult, error) {
		d := time.Duration(share * secs)
		spec := moSpec(o.seed, phase, d)
		sched, err := spec.Schedule()
		if err != nil {
			return nil, err
		}
		return runOpen(time.Now(), sched, d, op), nil
	}
	warm, err := play(0, moWarmShare)
	if err != nil {
		return nil, err
	}
	_, _, warmFailed := warm.split()
	rep.attempted += len(warm.ops)
	rep.failed += warmFailed
	res, err := play(1, 1-moWarmShare)
	if err != nil {
		return nil, err
	}
	_, _, failed := res.split()
	logf("%d requests at %.0f/s, %d failed, %d attempts retried, generator late p50/p90/p99 %v/%v/%v, inflight max %d",
		len(res.sched), res.rate(), failed, res.retries.Load(), res.lateQ(0.5), res.lateQ(0.9), res.lateQ(0.99), res.inflightMax)
	if ok, late := res.valid(); !ok {
		return nil, fmt.Errorf("invalid: generator p90 lateness %v > %v", late, lateLimit)
	}
	return res, nil
}

// addReadback adds read_p50_us for a readback's timed ReadLease passes:
// the median over passes of the mean time per read.
func addReadback(rep *report, perPass []time.Duration, where string) {
	xs := make([]float64, len(perPass))
	for i, d := range perPass {
		xs[i] = us(d)
	}
	rep.add("read_p50_us", "us", medianF(xs), fmt.Sprintf("median of %d timed ReadLease passes over the written keys, %s", len(xs), where))
}

// addLatency adds the latency metric — the read p50, or the put p25
// (see README.md: the SAN store's Put latency is bimodal, so its median
// is not steady) — and prints the other percentiles beside it (a p99 of
// 0: too few samples to support one).
func addLatency(rep *report, read bool, t tails, where string) {
	note := fmt.Sprintf("n=%d, %s", t.n, where)
	if read {
		rep.add("read_p50_us", "us", us(t.p50), note)
		rep.info("read_p90_us", "us", us(t.p90), note)
		rep.info("read_p99_us", "us", us(t.p99), note)
		return
	}
	rep.add("put_p25_us", "us", us(t.p25), note)
	rep.info("put_p50_us", "us", us(t.p50), note)
	rep.info("put_p90_us", "us", us(t.p90), note)
	rep.info("put_p99_us", "us", us(t.p99), note)
}
