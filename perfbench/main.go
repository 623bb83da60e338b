// Command perfbench is the repository's benchmark: it drives the live
// stack (Omega election -> Disk Paxos log -> KV / ShardedKV) through its
// public API on three workloads, checks every output for correctness and
// prints the end-to-end metrics named in BENCHMARK.json, or, with
// --trace 1, the per-layer metrics of a traced run. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload put-closed --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// slo is the latency limit of the SLO checks (the repository's
// interactive SLO class), applied to the all-op p90: see README.md.
const slo = 20 * time.Millisecond

type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metricVal struct {
	name, unit string
	value      float64
	note       string
	gated      bool // in BENCHMARK.json and the result line; else printed only
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	metrics           []metricVal
}

// add records a metric of the result line.
func (r *report) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metricVal{name: name, unit: unit, value: v, note: note, gated: true})
}

// info records a figure that is printed but is not one of the metrics:
// too unsteady from run to run on a shared 2-vCPU host to gate a change
// on (README.md gives the measured spreads).
func (r *report) info(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metricVal{name: name, unit: unit, value: v, note: note})
}

// violation records a failed correctness check.
func (r *report) violation(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	} else if len(r.problems) == 20 {
		r.problems = append(r.problems, "(further violations not shown)")
	}
}

var workloads = map[string]func(opts) (*report, error){
	"put-closed":   runPutClosed,
	"mixed-open":   runMixedOpen,
	"san-failover": runSANFailover,
	// Not a benchmark workload: reproduces the SAN wedge (README.md).
	"san-wedge": runSANWedge,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: put-closed, mixed-open or san-failover")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", o.workload, o.seconds, trace)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(2)
	}
	for _, m := range rep.metrics {
		note := m.note
		if !m.gated {
			note = "(printed only) " + note
		}
		fmt.Printf("%-28s %14.4f %-6s %s\n", m.name, m.value, m.unit, note)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: CHECK FAILED: %s\n", o.workload, p)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]map[string]any{}}
	for _, m := range rep.metrics {
		if m.gated {
			out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
