// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It runs one named workload for a fixed number of seconds, checks every
// guest output against references that do not come from the code path under
// test, and prints its metrics, by name and unit, as the last line of
// standard output. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run (-trace 0), in print order.
// Every workload reports every one of them; README.md gives each its meaning
// per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"success_share", "ratio"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"rss_peak_mib", "MiB"},
	{"modeled_slowdown", "x"},
}

// perLayer lists the metrics of a traced run (-trace 1). A layer a workload
// does not exercise reads 0 on it.
var perLayer = []metricDef{
	{"asm.assemble_ms", "ms"},
	{"patch.apply_ms", "ms"},
	{"machine.native_ms", "ms"},
	{"machine.ns_per_inst", "ns"},
	{"machine.instructions", "count"},
	{"trap.delivered", "count"},
	{"trap.delivery_mcycles", "Mcycles"},
	{"fpvm.overhead_ms", "ms"},
	{"fpvm.ns_per_trap", "ns"},
	{"fpvm.emulated", "count"},
	{"fpvm.decode_misses", "count"},
	{"fpvm.promotions", "count"},
	{"fpvm.demotions", "count"},
	{"fpvm.gc_passes", "count"},
	{"fpvm.arena_high_water", "count"},
	{"fpvm.decode_mcycles", "Mcycles"},
	{"fpvm.bind_mcycles", "Mcycles"},
	{"fpvm.emulate_mcycles", "Mcycles"},
	{"fpvm.gc_mcycles", "Mcycles"},
	{"jit.sb_compiled", "count"},
	{"jit.sb_hits", "count"},
	{"jit.coalesced", "count"},
	{"jit.delivery_avoided_ratio", "ratio"},
	{"arith.mpfr_ms", "ms"},
	{"arith.ns_per_op", "ns"},
	{"go.alloc_mib_per_pass", "MiB"},
	{"go.mallocs_per_pass", "count"},
	{"go.gc_cycles_per_pass", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"session.reset_us", "us"},
	{"session.cold_ms", "ms"},
	{"session.pool_hit_ratio", "ratio"},
	{"serve.p50_ms.named", "ms"},
	{"serve.p50_ms.asm", "ms"},
	{"serve.p50_ms.mpfr", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"serve.shared_sb_hit_rate", "ratio"},
	{"serve.shed", "count"},
	{"serve.errors", "count"},
	{"serve.mpfr_jit_mismatches", "count"},
	{"client.late_ms.tail", "ms"},
	{"client.in_flight_max", "count"},
	{"ledger.pass_ms", "ms"},
	{"ledger.remainder_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"self.bench_ms", "ms"},
	{"self.session_ms", "ms"},
	{"self.machine_ms", "ms"},
	{"self.client_ms", "ms"},
	{"self.http_ms", "ms"},
}

// spanLayer maps each span name to the layer its self time is charged to.
var spanLayer = map[string]string{
	"bench.pass":     "self.bench_ms",
	"bench.check":    "self.bench_ms",
	"session.Run":    "self.session_ms",
	"machine.Run":    "self.machine_ms",
	"client.request": "self.client_ms",
	"client.wait":    "self.client_ms",
	"client.decode":  "self.client_ms",
	"http.roundtrip": "self.http_ms",
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's one-line result.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload run hands back: attempts, failures and raw
// metric values keyed by name.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string // human-readable lines printed before the result
}

// Paths relative to the root of the checkout, where run.sh starts the
// benchmark: the fpvm-serve binary it built from the same tree, and the
// directory the traced run writes its spans to.
var (
	serveBin = filepath.Join(".bench_build", "bin", "fpvm-serve")
	traceDir = filepath.Join(".bench_build", "trace")
)

// options carries the command line into a workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	rng     *rand.Rand
	stderr  io.Writer
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(o options) (outcome, error)
}

var workloadTable = []workload{
	{"mpfr-jit", func(o options) (outcome, error) { return runBatch(o, mpfrJIT) }},
	{"vanilla-trap", func(o options) (outcome, error) { return runBatch(o, vanillaTrap) }},
	{"serve-open", runServe},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: mpfr-jit, vanilla-trap or serve-open")
		seed    = fs.Int64("seed", 1, "seed for program order, request mix, arrival times and generated programs")
		seconds = fs.Int("seconds", 25, "measured seconds")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		record  = fs.Bool("record-digests", false, "run every batch program under MPFR-200 and rewrite "+digestFile+" (only when MPFR output is meant to change)")
		probe   = fs.Bool("host-probe", false, "run as the host-speed probe child: read call counts on stdin, write ms per call")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe {
		if err := serveHostProbe(os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *record {
		if err := recordDigests(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloadTable {
		if workloadTable[i].name == *name {
			wl = &workloadTable[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		rng:     rand.New(rand.NewSource(*seed)),
		stderr:  stderr,
	}
	out, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	rep, err := buildReport(out, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	for _, n := range out.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-28s %14.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// buildReport checks that the outcome carries exactly the metrics defs asks
// for and assembles the result line.
func buildReport(out outcome, defs []metricDef) (report, error) {
	if out.attempted < 1 {
		return report{}, fmt.Errorf("no operation attempted")
	}
	rep := report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(out.values) != len(defs) {
		var extra []string
		for k := range out.values {
			if _, ok := rep.Metrics[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return report{}, fmt.Errorf("metrics %v are not declared", extra)
	}
	return rep, nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloadTable {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// layerValues zeroes every per-layer metric, so a workload sets only the
// layers on its path and the rest read 0.
func layerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	return v
}

// addSelfTimes charges the spans' self times to their layers, divided by
// units (passes or requests).
func addSelfTimes(v map[string]float64, spans []span, units int) {
	if units == 0 {
		return
	}
	for name, ns := range selfTimes(spans) {
		if m, ok := spanLayer[name]; ok {
			v[m] += float64(ns) / 1e6 / float64(units)
		}
	}
}
