package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestOpenLoopIsSeededPoisson(t *testing.T) {
	const r, d = 200.0, 20 * time.Second
	a := openLoop(rand.New(rand.NewSource(7)), r, d)
	b := openLoop(rand.New(rand.NewSource(7)), r, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := openLoop(rand.New(rand.NewSource(8)), r, d); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// A Poisson count over d has mean and variance r*d; allow 5 sigma.
	want := r * d.Seconds()
	if got := float64(len(a)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("%v arrivals at %v/s over %v, want about %v", got, r, d, want)
	}
	var gaps []float64
	prev := time.Duration(0)
	for _, due := range a {
		if due < prev || due >= d {
			t.Fatalf("due time %v out of order or past %v", due, d)
		}
		gaps = append(gaps, (due - prev).Seconds())
		prev = due
	}
	// Exponential gaps: the median is ln 2 / r.
	if got, want := median(gaps), math.Ln2/r; math.Abs(got-want) > 0.1*want {
		t.Fatalf("median gap %v, want about %v", got, want)
	}
}

func testSpecs() []*reqSpec {
	var specs []*reqSpec
	for _, n := range namedTargets {
		specs = append(specs, &reqSpec{class: classNamed, key: n.key, slots: n.slots})
	}
	for i := 0; i < asmPoolSize; i++ {
		specs = append(specs, &reqSpec{class: classAsm, slots: asmSlots})
	}
	return append(specs, &reqSpec{class: classMPFR, key: mpfrTarget, slots: mpfrSlots})
}

func TestMixIsExactInEveryBlock(t *testing.T) {
	specs := testSpecs()
	block := mixSlots(specs)
	if len(block) != mixBlock {
		t.Fatalf("mix block has %d slots, want %d", len(block), mixBlock)
	}
	mix := assignMix(rand.New(rand.NewSource(3)), 10*mixBlock+7, block)
	if len(mix) != 10*mixBlock+7 {
		t.Fatalf("assigned %d requests, want %d", len(mix), 10*mixBlock+7)
	}
	for b := 0; b+mixBlock <= len(mix); b += mixBlock {
		var perClass [numClasses]int
		perSpec := map[int]int{}
		for _, i := range mix[b : b+mixBlock] {
			perClass[specs[i].class]++
			perSpec[i]++
		}
		if perClass[classAsm] != asmSlots || perClass[classMPFR] != mpfrSlots {
			t.Fatalf("block at %d: %v asm/mpfr requests, want %d/%d", b, perClass, asmSlots, mpfrSlots)
		}
		for i, s := range specs {
			if s.class != classAsm && perSpec[i] != s.slots {
				t.Fatalf("block at %d: %s sent %d times, want %d", b, s.key, perSpec[i], s.slots)
			}
		}
	}
}

// TestLatencyCountsFromDueTime drives a server that takes 30ms per request
// through one connection with three requests due 1ms apart. A closed loop
// would report about 30ms for each; timed from when each was due, the second
// and third also carry their wait behind the first.
func TestMixSlowdownWeighsByTheMix(t *testing.T) {
	specs := testSpecs()
	for _, s := range specs {
		s.native.cycles = 100
	}
	asm0, asm1 := firstOfClass(specs, classAsm), firstOfClass(specs, classAsm)+1
	mpfr := firstOfClass(specs, classMPFR)
	samples := []sample{
		// One asm program drawn three times at 2x, one drawn once at 8x:
		// each counts for its share of the pool, not for its draws.
		{spec: asm0, ok: true, cycles: 200}, {spec: asm0, ok: true, cycles: 200}, {spec: asm0, ok: true, cycles: 200},
		{spec: asm1, ok: true, cycles: 800},
		// The MPFR request's median is 4x; the outlier and the failure do not count.
		{spec: mpfr, ok: true, cycles: 400}, {spec: mpfr, ok: true, cycles: 400}, {spec: mpfr, ok: true, cycles: 9900},
		{spec: mpfr, ok: false, cycles: 1},
	}
	// Weights: asm0 and asm1 each asmSlots/asmPoolSize, mpfr mpfrSlots.
	wa := float64(asmSlots) / asmPoolSize
	want := math.Exp((wa*math.Log(2) + wa*math.Log(8) + float64(mpfrSlots)*math.Log(4)) / (2*wa + float64(mpfrSlots)))
	if got := mixSlowdown(specs, samples); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("mix slowdown %v, want %v", got, want)
	}
	if got := mixSlowdown(specs, nil); got != 0 {
		t.Fatalf("mix slowdown of no samples %v, want 0", got)
	}
}

// firstOfClass is the index of the first spec of class c.
func firstOfClass(specs []*reqSpec, c int) int {
	for i, s := range specs {
		if s.class == c {
			return i
		}
	}
	return -1
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	const work = 30 * time.Millisecond
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(work)
		_ = json.NewEncoder(w).Encode(serveResp{Output: "42\n", Cycles: 10})
	}))
	defer ts.Close()
	spec := &reqSpec{class: classNamed, key: "fake", native: nativeRef{out: "42\n", cycles: 5}}
	r := &serveRun{
		o:      options{stderr: os.Stderr},
		specs:  []*reqSpec{spec},
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		srv:    &server{base: ts.URL},
		out:    outcome{values: map[string]float64{}},
	}
	sched := []arrival{{0, 0}, {time.Millisecond, 0}, {2 * time.Millisecond, 0}}
	samples := r.drive(sched)
	if r.out.failed != 0 || r.out.attempted != 3 {
		t.Fatalf("%d of %d requests failed", r.out.failed, r.out.attempted)
	}
	start := samples[0].due // request 0 was due at the start
	byDone := append([]sample(nil), samples...)
	sort.Slice(byDone, func(a, b int) bool { return byDone[a].done.Before(byDone[b].done) })
	for k, s := range byDone {
		if !s.ok || s.cycles != 10 {
			t.Fatalf("request %d: ok=%v cycles=%d", k, s.ok, s.cycles)
		}
		// The one connection serves the waiting requests in whatever order
		// their goroutines queued, but the k-th response to arrive came
		// after k+1 services. Counted from its own due time, its latency
		// includes the wait behind the others.
		min := time.Duration(k+1)*work - s.due.Sub(start)
		if s.latency() < min {
			t.Errorf("response %d: latency %v, want at least %v", k, s.latency(), min)
		}
		if s.late() < 0 || s.late() > 20*time.Millisecond {
			t.Errorf("response %d: dispatched %v after due", k, s.late())
		}
	}
	if r.maxInFlight < 2 {
		t.Errorf("in-flight max %d: the later requests should have waited while the first ran", r.maxInFlight)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailMinBeyond)); ok {
		t.Fatal("a tail from 10 samples has fewer than 10 beyond it")
	}
	for _, n := range []int{11, 12, 100, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i * 7919) % n) // a permutation of 0..n-1
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail value %v, want %d", n, beyond, v, tailMinBeyond)
		}
		if want := 100 * float64(n-tailMinBeyond) / float64(n); pct != want {
			t.Fatalf("n=%d: tail at p%v, want p%v", n, pct, want)
		}
	}
	if v, pct, _ := tail(seq(1000)); v != 989 || pct != 99 {
		t.Fatalf("1000 samples: tail %v at p%v, want 989 at p99", v, pct)
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of 3,1,2 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4,1,3,2 = %v", got)
	}
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("geomean of 2,8 = %v", got)
	}
}

func TestAgreesWithin(t *testing.T) {
	native := "0.00010016377859559285\n3.954358232087039\n"
	mpfr := "1.0016377859559391762070708610369102142716577416748254330807900e-04\n" +
		"3.9543582320870409504087455676287466017031855471111913685841971e+00\n"
	if why := agreesWithin(mpfr, native, nearNativeTol); why != "" {
		t.Fatalf("MPFR NAS CG output rejected: %s", why)
	}
	for _, bad := range []string{
		"1.0016377859e-04\n3.95436\n",   // second value off by 4e-7
		"1.0016377859559391e-04\n",      // a value missing
		"1.0016377859559391e-04\nNaN\n", // not a number where native has one
	} {
		if agreesWithin(bad, native, nearNativeTol) == "" {
			t.Errorf("accepted %q against %q", bad, native)
		}
	}
	if why := agreesWithin("x = 1.5\n", "x = 1.5000000000001\n", nearNativeTol); why != "" {
		t.Errorf("equal words and close numbers rejected: %s", why)
	}
}

func TestHostProbeAnswersEachRequest(t *testing.T) {
	var out strings.Builder
	if err := serveHostProbe(strings.NewReader("2\n1\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("%d answers to 2 requests: %q", len(lines), out.String())
	}
	for _, l := range lines {
		if v, err := strconv.ParseFloat(l, 64); err != nil || !(v > 0) {
			t.Fatalf("answer %q is not a positive time", l)
		}
	}
	if err := serveHostProbe(strings.NewReader("0\n"), io.Discard); err == nil {
		t.Fatal("a request for 0 calls was accepted")
	}
	if got := hostScale([]float64{5, 22, 20}); got != hostProbeRefMs/20 {
		t.Fatalf("scale %v, want reference / median", got)
	}
}

func TestSelfTimesSubtractCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once, not 60ns.
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50},
		// A grandchild is charged against its parent only.
		{ID: 4, Parent: 3, Name: "leaf", Start: 25, End: 35},
		// A child that outlives its parent covers only the parent's part.
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130},
		{ID: 6, Name: "other", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"root":  100 - 40 - 10, // [10,50) and [90,100) covered
		"child": 30 + (30 - 10),
		"leaf":  10,
		"late":  40,
		"other": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestTracerNestsSpansAndNilIsFree(t *testing.T) {
	var none *tracer
	if a := none.start("x", nil); a != nil {
		t.Fatal("a nil tracer opened a span")
	}
	none.start("y", nil).finish() // must not panic
	tr := newTracer()
	root := tr.start("root", nil)
	child := tr.start("child", root)
	child.finish()
	root.finish()
	sp := tr.snapshot()
	if len(sp) != 2 {
		t.Fatalf("%d spans, want 2", len(sp))
	}
	c, r := sp[0], sp[1]
	if c.Parent != r.ID || c.Trace != r.Trace || r.Parent != 0 || r.Trace != r.ID {
		t.Fatalf("child %+v does not nest under root %+v", c, r)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Fatalf("child %+v lies outside root %+v", c, r)
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (fpvm serve) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 52 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	got, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.UserTicks != 731 || got.SysTicks != 52 {
		t.Fatalf("utime/stime %d/%d, want 731/52", got.UserTicks, got.SysTicks)
	}
	if s := got.Seconds(); math.Abs(s-7.83) > 1e-9 {
		t.Fatalf("%v CPU seconds, want 7.83", s)
	}
	for _, bad := range []string{"4242 no command", "4242 (x) S 1 2 3", "4242 (x) S 1 2 3 4 5 6 7 8 9 10 zz 52 0"} {
		if _, err := parseProcStat(bad); err == nil {
			t.Errorf("parseProcStat(%q) accepted a malformed line", bad)
		}
	}
	if _, err := readProcCPU("self"); err != nil {
		t.Fatalf("reading this process's own stat: %v", err)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tfpvm-serve\nVmPeak:\t  812345 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"
	if got, err := parseVmHWM(status); err != nil || got != 40960 {
		t.Fatalf("VmHWM = %d, %v; want 40960", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) accepted malformed status", bad)
		}
	}
	if mib, err := readPeakRSSMiB("self"); err != nil || mib <= 0 {
		t.Fatalf("this process's peak RSS: %v MiB, %v", mib, err)
	}
}

func TestParseServeStats(t *testing.T) {
	body := `{"requests":25,"errors":1,"shed":2,"pool":{"gets":25,"puts":25,"news":19},
		"shared_sb":{"programs":1,"lookups":8,"hits":6,"hit_rate":0.75},"tenants":{}}`
	st, err := parseServeStats([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 25 || st.Errors != 1 || st.Shed != 2 || st.Pool.Gets != 25 || st.Pool.News != 19 {
		t.Fatalf("parsed %+v", st)
	}
	if st.SharedSB == nil || st.SharedSB.Hits != 6 || st.SharedSB.Lookups != 8 {
		t.Fatalf("shared superblock block %+v", st.SharedSB)
	}
	later, err := parseServeStats([]byte(`{"errors":1,"shed":5,"pool":{"gets":125,"news":24},"shared_sb":{"lookups":108,"hits":96}}`))
	if err != nil {
		t.Fatal(err)
	}
	d := later.since(st)
	if d.errors != 0 || d.shed != 3 || d.gets != 100 || d.news != 5 {
		t.Fatalf("delta %+v", d)
	}
	if got := d.poolHitRatio(); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("pool hit ratio over the window %v, want 0.95", got)
	}
	if got := d.sharedSBHitRate(); math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("shared superblock hit rate over the window %v, want 0.9", got)
	}
	if (statsDelta{}).poolHitRatio() != 0 || (statsDelta{}).sharedSBHitRate() != 0 {
		t.Fatal("an idle window has nonzero ratios")
	}
	if _, err := parseServeStats([]byte(`{"requests":1}`)); err == nil {
		t.Fatal("accepted /stats without a pool block")
	}
	if _, err := parseServeStats([]byte(`not json`)); err == nil {
		t.Fatal("accepted a body that is not JSON")
	}
}

func TestBuildReportWantsExactlyTheDeclaredMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	out := outcome{attempted: 3, values: map[string]float64{"a_ms": 1.5, "b": 2}}
	rep, err := buildReport(out, defs)
	if err != nil || !rep.Correct || rep.Metrics["a_ms"] != (metric{1.5, "ms"}) {
		t.Fatalf("report %+v, %v", rep, err)
	}
	out.failed = 1
	if rep, _ := buildReport(out, defs); rep.Correct {
		t.Fatal("a run with a failure reported correct")
	}
	delete(out.values, "b")
	if _, err := buildReport(out, defs); err == nil {
		t.Fatal("a missing metric was not reported")
	}
	out.values["b"], out.values["c"] = 2, 3
	if _, err := buildReport(out, defs); err == nil {
		t.Fatal("an undeclared metric was not reported")
	}
	if _, err := buildReport(outcome{values: out.values}, defs); err == nil {
		t.Fatal("a run with no attempts was accepted")
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json, which the harness
// reads, in step with the metric and workload tables the code prints.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadTable {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json %s [%s], code %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for m := range spanLayer {
		if _, ok := layerValues()[spanLayer[m]]; !ok {
			t.Errorf("span %s charges undeclared metric %s", m, spanLayer[m])
		}
	}
}
