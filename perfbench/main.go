// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload, checks its outputs, and prints one JSON line:
//
//	go run . --workload sky-read --seed 3 --seconds 15 --trace 0
//
// prints {"correct":…,"attempted":…,"failed":…,"metrics":{…}} as the last
// line of standard output. With --trace 0 the metrics are the end-to-end
// metrics of BENCHMARK.json; with --trace 1 the run repeats the workload
// with spans recorded around every call into the program and prints the
// per-layer metrics plus the tracing overhead (traced minus untraced) of
// every end-to-end metric. run.sh builds and runs it from the repository
// root; WORKLOADS.md describes the workloads and NOISE.md the run
// conditions.
//
// Everything runs in this one process at GOMAXPROCS=2, served through the
// in-process pi2serve handler by a single closed-loop client.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// procs is the benchmark's GOMAXPROCS: the two vCPUs it was tuned on,
// fixed so that a machine with more CPUs runs the same configuration.
// NOISE.md compares it with GOMAXPROCS=1.
const procs = 2

// e2eUnits lists every end-to-end metric with its unit; a run with
// --trace 0 reports exactly these.
var e2eUnits = map[string]string{
	"setup_s":         "s",
	"gen_total_s":     "s",
	"gen_alloc_mb":    "MB",
	"iface_cost":      "cost",
	"interact_p50_ms": "ms",
	"interact_p90_ms": "ms",
	"ingest_p50_ms":   "ms",
	"heap_peak_mb":    "MB",
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "sizes the work of a run (see spec)")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced run")
	flag.StringVar(&o.traceOut, "trace-out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", workloadNames())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// run executes the workload untraced and, with o.trace, once more traced,
// and assembles the report.
func run(o options) (*report, error) {
	plain, err := runPhase(o, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{Attempted: plain.ops.attempted, Failed: plain.ops.failed, Metrics: map[string]metric{}}
	e2e := plain.endToEnd()
	if !o.trace {
		for name, v := range e2e {
			rep.Metrics[name] = metric{v, e2eUnits[name]}
		}
	} else {
		tr := newTracer()
		traced, err := runPhase(o, tr)
		if err != nil {
			return nil, err
		}
		rep.Attempted += traced.ops.attempted
		rep.Failed += traced.ops.failed
		for name, v := range traced.endToEnd() {
			rep.Metrics["trace_overhead."+name] = metric{v - e2e[name], e2eUnits[name]}
		}
		for name, m := range traced.layers {
			rep.Metrics[name] = m
		}
		if err := tr.write(o); err != nil {
			return nil, err
		}
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no samples", name)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}
