package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"omegasm"
	"omegasm/internal/consensus"
	"omegasm/internal/core"
	"omegasm/internal/san"
	"omegasm/internal/shmem"
)

// perLayer is the traced run's metric list, in print order. A metric a
// workload does not exercise reads 0 (see README.md for which apply).
var perLayer = []struct{ name, unit string }{
	{"load.late_p50_us", "us"}, {"load.late_p99_us", "us"}, {"load.inflight_max", "count"},
	{"shardedkv.route_ns", "ns"}, {"shardedkv.shard_skew", "ratio"},
	{"kv.put_us", "us"}, {"kv.put_self_us", "us"}, {"kv.put_allocs", "count"}, {"kv.put_bytes", "B"},
	{"kv.put_stalls", "count"}, {"kv.slots_per_put", "ratio"}, {"kv.checkpoints_per_kput", "ratio"},
	{"kv.read_lease_ns", "ns"}, {"kv.read_fallback_share", "ratio"},
	{"lease.readable_share", "ratio"}, {"lease.dark_ms", "ms"},
	{"omega.agree_ms", "ms"}, {"omega.leader_changes", "count"},
	{"core.step_ns", "ns"}, {"core.step_allocs", "count"}, {"core.reg_writes_per_step", "ratio"},
	{"engine.wake_us", "us"}, {"engine.steps_per_commit", "ratio"},
	{"consensus.commit_us", "us"}, {"consensus.step_us", "us"},
	{"consensus.reg_reads_per_slot", "ratio"}, {"consensus.reg_writes_per_slot", "ratio"},
	{"consensus.ballots_per_slot", "ratio"}, {"consensus.batch_fill", "ratio"}, {"consensus.apply_lag_us", "us"},
	{"shmem.read_ns", "ns"}, {"shmem.write_ns", "ns"},
	{"san.read_us", "us"}, {"san.write_us", "us"}, {"san.ops_per_put", "ratio"},
	{"split.kv_us", "us"}, {"split.engine_us", "us"}, {"split.consensus_us", "us"}, {"split.shmem_us", "us"},
	{"trace.overhead_pct", "%"},
}

// layers collects the traced run's per-layer values.
type layers struct {
	vals  map[string]float64
	notes map[string]string
}

func newLayers() *layers {
	return &layers{vals: map[string]float64{}, notes: map[string]string{}}
}

func (ly *layers) set(name string, v float64, note string) {
	ly.vals[name] = v
	if note != "" {
		ly.notes[name] = note
	}
}

// emit adds every per-layer metric to rep, 0 for those not set.
func (ly *layers) emit(rep *report) {
	for _, m := range perLayer {
		v, ok := ly.vals[m.name]
		note := ly.notes[m.name]
		if !ok {
			note = "not exercised by this workload"
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, note = 0, "no samples"
		}
		rep.add(m.name, m.unit, v, note)
	}
}

// sampler polls the public stores' observability surface while a traced
// segment runs.
type sampler struct {
	cs      []*omegasm.Cluster
	kvs     []*omegasm.KV
	stop    chan struct{}
	done    chan struct{}
	samples int
	leaseOK int
	changes int
	c0, c1  []kvCounters
}

type kvCounters struct{ ckpt, slots, applied int }

func (s *sampler) snapshot() []kvCounters {
	out := make([]kvCounters, len(s.kvs))
	for i, kv := range s.kvs {
		out[i] = kvCounters{kv.Checkpoints(), kv.SlotsUsed(), kv.Applied()}
	}
	return out
}

func startSampler(cs []*omegasm.Cluster, kvs []*omegasm.KV) *sampler {
	s := &sampler{cs: cs, kvs: kvs, stop: make(chan struct{}), done: make(chan struct{})}
	s.c0 = s.snapshot()
	last := make([]int, len(cs))
	for i := range last {
		last[i], _ = cs[i].AgreedLeader()
	}
	go func() {
		defer close(s.done)
		for {
			select {
			case <-s.stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
			for i, c := range s.cs {
				if l, ok := c.AgreedLeader(); ok && l != last[i] {
					s.changes++
					last[i] = l
				}
				if _, ok := s.kvs[i].LeaseHolder(); ok {
					s.leaseOK++
				}
				s.samples++
			}
		}
	}()
	return s
}

// finish stops the sampler and takes the closing counter snapshot.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	s.c1 = s.snapshot()
}

// delta sums a counter's change over the sampled stores.
func (s *sampler) delta(f func(kvCounters) int) int {
	d := 0
	for i := range s.c0 {
		d += f(s.c1[i]) - f(s.c0[i])
	}
	return d
}

// publicCounters sets the per-layer values the samplers measured over
// acked Puts.
func (s *sampler) publicCounters(ly *layers, acked int) {
	slots := s.delta(func(c kvCounters) int { return c.slots })
	ly.set("kv.slots_per_put", float64(slots)/float64(acked), fmt.Sprintf("SlotsUsed delta %d / %d acked", slots, acked))
	ck := s.delta(func(c kvCounters) int { return c.ckpt })
	ly.set("kv.checkpoints_per_kput", float64(ck)/(float64(acked)/1000), fmt.Sprintf("%d checkpoints", ck))
	applied := s.delta(func(c kvCounters) int { return c.applied })
	ly.set("consensus.batch_fill", float64(applied)/float64(slots), "Applied delta / SlotsUsed delta")
	ly.set("lease.readable_share", float64(s.leaseOK)/float64(s.samples), fmt.Sprintf("%d samples", s.samples))
	ly.set("omega.leader_changes", float64(s.changes), "agreed-leader changes seen by the sampler")
}

// crashWatch is what a traced failover observed after the crash.
type crashWatch struct {
	agree, dark     time.Duration
	agreeOK, darkOK bool
}

// watchCrash polls from the crash until the cluster agrees on a live
// leader and a live replica holds a readable lease (5 s at most).
func watchCrash(s *kvSetup, at time.Time, victim int) *crashWatch {
	w := &crashWatch{}
	for time.Since(at) < 5*time.Second && !(w.agreeOK && w.darkOK) {
		if l, ok := s.c.AgreedLeader(); !w.agreeOK && ok && !s.c.Crashed(l) {
			w.agree, w.agreeOK = time.Since(at), true
		}
		if h, ok := s.kv.LeaseHolder(); !w.darkOK && ok && h != victim {
			w.dark, w.darkOK = time.Since(at), true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return w
}

// readSink keeps the timed reads from being optimized away.
var readSink uint64

// microShmem times uncounted atomic register reads and writes.
func microShmem() (readNs, writeNs float64) {
	const ops = 1 << 20
	row := shmem.WordRow(shmem.NewAtomicMem(ladderN, false), "BENCH", 0, ladderN)
	r := row[0]
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.Write(0, uint64(i))
	}
	writeNs = float64(time.Since(t0)) / ops
	var sum uint64
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		sum += r.Read(i % ladderN)
	}
	readNs = float64(time.Since(t0)) / ops
	readSink = sum
	return readNs, writeNs
}

// microSAN times quorum register reads and writes over three ideal disks.
func microSAN() (readUs, writeUs float64, err error) {
	const ops = 2000
	disks := []*san.Disk{san.NewDisk(san.Latency{}, 1), san.NewDisk(san.Latency{}, 2), san.NewDisk(san.Latency{}, 3)}
	defer func() {
		for _, d := range disks {
			d.Close()
		}
	}()
	mem, err := san.NewUncountedDiskMem(ladderN, disks)
	if err != nil {
		return 0, 0, err
	}
	r := shmem.WordRow(mem, "BENCH", 0, ladderN)[0]
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.Write(0, uint64(i))
	}
	writeUs = us(time.Since(t0)) / ops
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		r.Read(i % ladderN)
	}
	readUs = us(time.Since(t0)) / ops
	return readUs, writeUs, nil
}

// microCoreStep returns the allocations of one Algorithm 1 step.
func microCoreStep() float64 {
	procs := core.BuildAlgo1(shmem.NewAtomicMem(ladderN, false), ladderN)
	now := int64(0)
	return testing.AllocsPerRun(10000, func() {
		now++
		procs[int(now)%ladderN].Step(now)
	})
}

// ladderLayers sets the per-layer values measured on the ladder between
// counter snapshots c0 and c1.
func ladderLayers(ly *layers, l *ladder, c0, c1 ladderCounts, regReadNs, regWriteNs float64) {
	decided := float64(c1.decided - c0.decided)
	regs := c1.regs.sub(c0.regs)
	var wakes []time.Duration
	for _, m := range l.machines {
		wakes = append(wakes, m.wakes...)
	}
	ly.set("engine.wake_us", us(newDist(wakes).rank(0.5)), fmt.Sprintf("p50 Notify -> Step, n=%d", len(wakes)))
	ly.set("engine.steps_per_commit", float64(c1.steps-c0.steps)/decided, fmt.Sprintf("%.0f decided slots", decided))
	ly.set("consensus.commit_us", us(newDist(l.commit).rank(0.5)), fmt.Sprintf("p50 submit -> first apply, n=%d", len(l.commit)))
	ly.set("consensus.step_us", float64(c1.stepNs-c0.stepNs)/1e3/decided, "StepBurst time per decided slot")
	cr, cw := regs.sum(consensusClasses...)
	ly.set("consensus.reg_reads_per_slot", float64(cr)/decided, "")
	ly.set("consensus.reg_writes_per_slot", float64(cw)/decided, "")
	ly.set("consensus.ballots_per_slot", float64(regs[consensus.ClassMBal][1])/decided, "MBAL writes per decided slot")
	ly.set("consensus.apply_lag_us", us(newDist(l.lags).rank(0.5)), fmt.Sprintf("p50 first -> last replica apply, n=%d", len(l.lags)))
	coreSteps := float64(c1.coreSteps - c0.coreSteps)
	ly.set("core.step_ns", float64(c1.coreNs-c0.coreNs)/coreSteps, fmt.Sprintf("%.0f election steps", coreSteps))
	_, ew := regs.sum(electionClasses...)
	ly.set("core.reg_writes_per_step", float64(ew)/coreSteps, "")

	// The split of a ladder Put, from the traced requests' spans: engine is
	// the wake (Notify -> Step) plus the request's self time (waiting on
	// the engine and the hand-back); consensus is submit plus the replica
	// steps overlapping the request; shmem is the consensus register
	// accesses per Put at the measured per-access cost, carved out of the
	// consensus share.
	acked := float64(len(l.lat))
	shmemPer := (float64(cr)*regReadNs + float64(cw)*regWriteNs) / acked
	eng, cons, tot := ladderSplit(l.rec.spans())
	if len(tot) == 0 {
		return
	}
	cut := newDist(tot).rank(0.99)
	var sumE, sumC, sumS, n float64
	for i := range tot {
		if tot[i] > cut {
			continue
		}
		s := math.Min(shmemPer, float64(cons[i]))
		sumE += float64(eng[i])
		sumC += float64(cons[i]) - s
		sumS += s
		n++
	}
	ly.set("split.engine_us", sumE/n/1e3, fmt.Sprintf("ladder, mean of %d traced Puts up to p99", int(n)))
	ly.set("split.consensus_us", sumC/n/1e3, "ladder, consensus minus shmem")
	ly.set("split.shmem_us", sumS/n/1e3, "consensus register accesses x measured access cost")
}

// ladderSplit returns, per traced ladder Put, its engine and consensus
// time and its total.
func ladderSplit(all []span) (eng, cons, tot []time.Duration) {
	type stepIv struct{ s, e int64 }
	var steps []stepIv
	wake := map[int64]span{}
	children := map[int32][]span{}
	var roots []int32
	for i, s := range all {
		switch {
		case s.Name == spanStep:
			steps = append(steps, stepIv{s.Start, s.End})
		case s.Name == spanWake:
			wake[s.Req] = s
		case s.Name == spanLadderPut:
			roots = append(roots, int32(i))
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	sort.Slice(steps, func(a, b int) bool { return steps[a].s < steps[b].s })
	for _, ri := range roots {
		root := all[ri]
		local := []span{root}
		for _, c := range children[ri] {
			c.Parent = 0
			local = append(local, c)
		}
		var wakeLen int64
		if w, ok := wake[root.Req]; ok {
			w.Parent = 0
			local = append(local, w)
			wakeLen = clip(w.Start, w.End, root.Start, root.End)
		}
		// Steps overlapping the request are its children too.
		j := sort.Search(len(steps), func(k int) bool { return steps[k].e > root.Start })
		for ; j < len(steps) && steps[j].s < root.End; j++ {
			local = append(local, span{Name: spanStep, Start: steps[j].s, End: steps[j].e, Parent: 0})
		}
		self := selfTimes(local)[0]
		total := root.End - root.Start
		e := wakeLen + self
		eng = append(eng, time.Duration(e))
		cons = append(cons, time.Duration(total-e))
		tot = append(tot, time.Duration(total))
	}
	return eng, cons, tot
}

// clip returns the length of [s, e) inside [lo, hi).
func clip(s, e, lo, hi int64) int64 {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	if e < s {
		return 0
	}
	return e - s
}

// trimmedMean is the mean of the samples at or below the p99.
func trimmedMean(xs []time.Duration) time.Duration {
	d := newDist(xs)
	if len(d) == 0 {
		return 0
	}
	cut := d.rank(0.99)
	var sum time.Duration
	n := 0
	for _, x := range d {
		if x <= cut {
			sum += x
			n++
		}
	}
	return sum / time.Duration(n)
}

// writeSpans stores the run's spans and says where.
func writeSpans(o opts, rec *recorder) {
	name := o.workload + ".jsonl"        // one file per workload, overwritten by each traced run
	dir := os.Getenv("CARGO_TARGET_DIR") // the build directory run.sh uses
	if dir == "" {
		dir = ".bench_build"
	}
	path, err := rec.write(filepath.Join(dir, "spans"), name)
	if err != nil {
		logf("spans not written: %v", err)
		return
	}
	logf("spans: %d written to %s (%d dropped)", len(rec.spans()), path, rec.dropped.Load())
}
