package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/patch"
	"fpvm/internal/session"
	"fpvm/internal/workloads"
)

// tier is one rung of the execution ladder: an arithmetic system plus the
// sequence-emulation and trace-JIT settings it runs under.
type tier struct {
	name   string
	mpfr   bool // MPFR-200 when true, Vanilla otherwise
	seqLen int  // session.Config.MaxSequenceLen
	jit    int  // session.Config.JITThreshold
}

var (
	// mpfrJIT is the fastest rung: MPFR-200 with sequence emulation and the
	// trace JIT, so the trap path barely runs.
	mpfrJIT = tier{name: "mpfr-jit", mpfr: true, seqLen: 16, jit: 8}
	// vanillaTrap is the paper's pure trap-and-emulate mode under Vanilla.
	vanillaTrap = tier{name: "vanilla-trap"}
)

// mpfrPrec is the MPFR precision of every MPFR run, in bits.
const mpfrPrec = 200

func (t tier) config() session.Config {
	c := t.vanillaConfig()
	if t.mpfr {
		c.System = arith.NewMPFR(mpfrPrec)
	}
	return c
}

// vanillaConfig is the same rung under Vanilla arithmetic.
func (t tier) vanillaConfig() session.Config {
	return session.Config{System: arith.Vanilla{}, MaxSequenceLen: t.seqLen, JITThreshold: t.jit}
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// batchProg is one program of a pass with its references.
type batchProg struct {
	key  string
	prog *isa.Program
	ref  nativeRef
	// want is the expected MPFR-200 output digest: the recorded one when
	// this build reproduced the recorded program image, else the digest of
	// an MPFR-200 trap-and-emulate run of this very image.
	want string
	// nearNative is set when want comes from such a run. That reference
	// runs the same MPFR code as the run under test, so the output must
	// also agree with the native output to nearNativeTol.
	nearNative bool
}

// check returns "" when a run's result matches its reference, else why not.
// Vanilla output must equal the native output bit for bit; MPFR output must
// hash to the expected digest.
func (b *batchProg) check(res session.Result, err error, mpfr bool) string {
	if err != nil {
		return err.Error()
	}
	if bad := truncation(res); bad != "" {
		return bad
	}
	if mpfr {
		if got := digest(res.Output); got != b.want {
			return fmt.Sprintf("MPFR output digest %s, want %s", got, b.want)
		}
		if b.nearNative {
			return agreesWithin(res.Output, b.ref.out, nearNativeTol)
		}
		return ""
	}
	if res.Output != b.ref.out {
		return fmt.Sprintf("output %q differs from native %q", res.Output, b.ref.out)
	}
	return ""
}

// batchRun is the state a batch workload measures: its programs and the
// warm session they run on.
type batchRun struct {
	t            tier
	digests      map[string]recorded
	progs        []*batchProg
	sess         *session.Session
	out          outcome
	unreproduced int // builds whose image differs from the recorded one
}

func (r *batchRun) fail(o options, key, why string) {
	r.out.failed++
	if r.out.failed <= 5 {
		fmt.Fprintf(o.stderr, "perfbench: %s: %s: %.300s\n", r.t.name, key, why)
	}
}

// runOne runs one program on the warm session and checks it.
func (r *batchRun) runOne(o options, b *batchProg) (session.Result, time.Duration) {
	t0 := time.Now()
	res, err := r.sess.Run(b.prog, r.t.config())
	d := time.Since(t0)
	r.out.attempted++
	if bad := b.check(res, err, r.t.mpfr); bad != "" {
		r.fail(o, b.key, bad)
	}
	return res, d
}

// runBatch measures a batch tier: the Figure-12 programs, run in process on
// one warm session, pass after pass in a seeded order.
func runBatch(o options, t tier) (outcome, error) {
	r := &batchRun{t: t, out: outcome{values: map[string]float64{}}}
	if t.mpfr {
		d, err := loadDigests()
		if err != nil {
			return outcome{}, err
		}
		r.digests = d
	}
	probe, err := startHostProbe()
	if err != nil {
		return outcome{}, err
	}
	defer probe.stop()
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // each set-up starts from a collected heap, not the last one's garbage
		d, err := r.setup(o)
		if err != nil {
			return outcome{}, err
		}
		reading, err := probe.read(probeCalls)
		if err != nil {
			return outcome{}, err
		}
		rawSetups = append(rawSetups, d.Seconds())
		setups = append(setups, d.Seconds()*hostScale([]float64{reading}))
	}
	if o.trace {
		err = r.measureTraced(o)
	} else {
		err = r.measure(o, probe)
	}
	if err != nil {
		return outcome{}, err
	}
	if !o.trace {
		r.out.values["setup_s"] = median(setups)
	}
	r.out.notes = append(r.out.notes, fmt.Sprintf("# %s seed=%d: %d set-ups, raw s %.3f, normalized s %.3f", t.name, o.seed, setupReps, rawSetups, setups))
	if r.unreproduced > 0 {
		r.out.notes = append(r.out.notes, fmt.Sprintf(
			"# %d program builds did not reproduce the image recorded in %s; their MPFR output was checked against an MPFR-200 trap-and-emulate run of the same image",
			r.unreproduced, digestFile))
	}
	return r.out, nil
}

// setup builds every program, makes a new session and runs one cold pass,
// checking each output, then collects the garbage. It returns the wall time
// of the build, the cold pass and the collection; taking the references in
// between is not part of it.
func (r *batchRun) setup(o options) (time.Duration, error) {
	t0 := time.Now()
	r.progs = r.progs[:0]
	for _, w := range workloads.All() {
		prog, err := w.Build()
		if err != nil {
			return 0, err
		}
		r.progs = append(r.progs, &batchProg{key: programKey(w), prog: prog})
	}
	built := time.Since(t0)
	if err := r.references(); err != nil {
		return 0, err
	}
	t1 := time.Now()
	r.sess = session.New()
	for _, b := range r.progs {
		r.runOne(o, b)
	}
	runtime.GC() // the set-up pays for its garbage (see measure)
	return built + time.Since(t1), nil
}

// references takes each program's references from outside the code path
// under test: a native run on the bare machine, and for MPFR the recorded
// output digest. A build whose image differs from the recorded one (the
// NAS CG generator is not deterministic from one process to the next) is
// instead checked against an MPFR-200 trap-and-emulate run of the same
// image (no sequence emulation, no trace JIT), and both must agree with the
// native output to nearNativeTol. That catches a tiering defect exactly but
// an MPFR arithmetic defect only when it moves a value by more than the
// tolerance.
func (r *batchRun) references() error {
	var nr nativeRunner
	var trapSess *session.Session
	for _, b := range r.progs {
		ref, err := nr.run(b.prog)
		if err != nil {
			return fmt.Errorf("%s: %w", b.key, err)
		}
		b.ref = ref
		if !r.t.mpfr {
			continue
		}
		rec, ok := r.digests[b.key]
		if !ok {
			return fmt.Errorf("%s has no entry for %s", digestFile, b.key)
		}
		if imageDigest(b.prog) == rec.Image {
			b.want = rec.Output
			continue
		}
		r.unreproduced++
		if trapSess == nil {
			trapSess = session.New()
		}
		res, err := trapSess.Run(b.prog, session.Config{System: arith.NewMPFR(mpfrPrec)})
		if err == nil {
			if bad := truncation(res); bad != "" {
				err = errors.New(bad)
			}
		}
		if err == nil {
			if bad := agreesWithin(res.Output, b.ref.out, nearNativeTol); bad != "" {
				err = errors.New(bad)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: MPFR trap-and-emulate reference: %w", b.key, err)
		}
		b.want, b.nearNative = digest(res.Output), true
	}
	return nil
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// pass runs every program once in the order perm gives and returns the
// per-run latencies (ms) and results in program order.
func (r *batchRun) pass(o options, perm []int) ([]float64, []session.Result) {
	lat := make([]float64, 0, len(perm))
	res := make([]session.Result, len(r.progs))
	for _, i := range perm {
		var d time.Duration
		res[i], d = r.runOne(o, r.progs[i])
		lat = append(lat, ms(d))
	}
	return lat, res
}

// probeCalls is how many host-probe calls make one reading in a batch run:
// about 110 ms on the reference host, a tenth of a vanilla-trap pass.
const probeCalls = 10

// measure is the untraced run: passes until the time is up, each followed
// by a host-probe reading. A pass ends with a full garbage collection, timed
// with it, so that every pass pays for its own garbage and none is left
// collecting beside the probe, where a change that made more garbage would
// slow the probe and hide itself. The end-to-end latencies are the median
// pass and the slowest program's median run, normalized to the reference
// host by the median reading; the raw times are printed as a note.
func (r *batchRun) measure(o options, probe *hostProbe) error {
	var lat, passes, readings []float64
	var runProg []int // program index of each entry of lat
	var last []session.Result
	cpu0, start := cpuSeconds(), time.Now()
	for len(passes) == 0 || time.Since(start) < o.seconds {
		perm := o.rng.Perm(len(r.progs))
		t0 := time.Now()
		l, res := r.pass(o, perm)
		runtime.GC()
		passes = append(passes, ms(time.Since(t0)))
		reading, err := probe.read(probeCalls)
		if err != nil {
			return err
		}
		readings = append(readings, reading)
		lat = append(lat, l...)
		runProg = append(runProg, perm...)
		last = res
	}
	cpu := cpuSeconds() - cpu0
	// The tail of a batch is its slowest program: the largest median run
	// time of any one program.
	runs := make([][]float64, len(r.progs))
	for k, i := range runProg {
		runs[i] = append(runs[i], lat[k])
	}
	var worst float64
	worstKey := ""
	for i, b := range r.progs {
		if m := median(runs[i]); m > worst {
			worst, worstKey = m, b.key
		}
	}
	rss, err := readPeakRSSMiB("self")
	if err != nil {
		return err
	}
	scale := hostScale(readings)
	v := r.out.values
	v["p50_ms"] = median(passes) * scale
	v["tail_ms"] = worst * scale
	v["rss_peak_mib"] = rss
	v["modeled_slowdown"] = r.slowdown(last)
	v["success_share"] = 1 - float64(r.out.failed)/float64(r.out.attempted)
	r.out.notes = append(r.out.notes, fmt.Sprintf(
		"# %d passes, %.1f ms CPU per program run; raw: pass %.1f ms, slowest program %s %.1f ms; host probe %.3f ms per call (reference %.1f)",
		len(passes), 1e3*cpu/float64(len(lat)), median(passes), worstKey, worst, median(readings), hostProbeRefMs))
	return nil
}

// slowdown is the geomean over programs of modeled cycles over native
// modeled cycles.
func (r *batchRun) slowdown(res []session.Result) float64 {
	var xs []float64
	for i, b := range r.progs {
		xs = append(xs, float64(res[i].Cycles)/float64(b.ref.cycles))
	}
	return geomean(xs)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// measureTraced is the traced run. Each round runs, in one seeded order: a
// traced pass (spans around every call into the session layer), an
// untraced pass (the difference is the tracing overhead), a native pass on
// the bare machine and, on an MPFR tier, a Vanilla pass at the same tier.
// The per-layer ledger is built from the medians of those passes.
func (r *batchRun) measureTraced(o options) error {
	v := layerValues()
	r.out.values = v
	if err := r.layerSetupCosts(v); err != nil {
		return err
	}
	if err := sessionProbe(v, 0); err != nil {
		return err
	}

	tr := newTracer()
	var nr nativeRunner
	vsess := session.New()
	var traced, untraced, runSums, native, vanilla []float64
	var allocs, mallocs, gcs []float64
	var last []session.Result
	tracedPass := func(perm []int) []session.Result {
		t0 := time.Now()
		root := tr.start("bench.pass", nil)
		res := make([]session.Result, len(r.progs))
		for _, i := range perm {
			b := r.progs[i]
			sp := tr.start("session.Run", root)
			var err error
			res[i], err = r.sess.Run(b.prog, r.t.config())
			sp.finish()
			ck := tr.start("bench.check", root)
			r.out.attempted++
			if bad := b.check(res[i], err, r.t.mpfr); bad != "" {
				r.fail(o, b.key, bad)
			}
			ck.finish()
		}
		root.finish()
		traced = append(traced, ms(time.Since(t0)))
		return res
	}
	untracedPass := func(perm []int) {
		m0 := readMem()
		t0 := time.Now()
		l, _ := r.pass(o, perm)
		untraced = append(untraced, ms(time.Since(t0)))
		m1 := readMem()
		runSums = append(runSums, sum(l))
		allocs = append(allocs, float64(m1.alloc-m0.alloc)/(1<<20))
		mallocs = append(mallocs, float64(m1.mallocs-m0.mallocs))
		gcs = append(gcs, float64(m1.numGC-m0.numGC))
	}
	start := time.Now()
	for rounds := 0; rounds == 0 || time.Since(start) < o.seconds; rounds++ {
		perm := o.rng.Perm(len(r.progs))
		// Alternate which of the paired passes goes first, so neither always
		// inherits the other's garbage.
		if rounds%2 == 0 {
			last = tracedPass(perm)
			untracedPass(perm)
		} else {
			untracedPass(perm)
			last = tracedPass(perm)
		}

		nroot := tr.start("ledger.native", nil)
		var nsum time.Duration
		for _, i := range perm {
			b := r.progs[i]
			sp := tr.start("machine.Run", nroot)
			t1 := time.Now()
			ref, err := nr.run(b.prog)
			nsum += time.Since(t1)
			sp.finish()
			r.out.attempted++
			if err != nil || ref.out != b.ref.out {
				r.fail(o, b.key, fmt.Sprintf("native rerun differs from reference (err %v)", err))
			}
		}
		nroot.finish()
		native = append(native, ms(nsum))

		if r.t.mpfr {
			var vsum time.Duration
			for _, i := range perm {
				b := r.progs[i]
				t1 := time.Now()
				res, err := vsess.Run(b.prog, r.t.vanillaConfig())
				vsum += time.Since(t1)
				r.out.attempted++
				if bad := b.check(res, err, false); bad != "" {
					r.fail(o, b.key, "vanilla at tier: "+bad)
				}
			}
			vanilla = append(vanilla, ms(vsum))
		}
	}

	nat := median(native)
	vt := median(runSums)
	if r.t.mpfr {
		vt = median(vanilla)
		v["arith.mpfr_ms"] = median(runSums) - vt
	}
	v["machine.native_ms"] = nat
	v["fpvm.overhead_ms"] = vt - nat
	v["ledger.pass_ms"] = median(traced)
	v["ledger.remainder_ms"] = median(traced) - nat - v["fpvm.overhead_ms"] - v["arith.mpfr_ms"]
	v["trace.overhead_ms"] = median(traced) - median(untraced)
	v["go.alloc_mib_per_pass"] = median(allocs)
	v["go.mallocs_per_pass"] = median(mallocs)
	v["go.gc_cycles_per_pass"] = median(gcs)
	v["go.gc_cpu_fraction"] = gcCPUFraction()
	var insts float64
	for _, b := range r.progs {
		insts += float64(b.ref.insts)
	}
	v["machine.instructions"] = insts
	v["machine.ns_per_inst"] = nat * 1e6 / insts
	addCounts(v, last)
	if d := v["trap.delivered"]; d > 0 {
		v["fpvm.ns_per_trap"] = v["fpvm.overhead_ms"] * 1e6 / d
	}
	if e := v["fpvm.emulated"]; e > 0 && r.t.mpfr {
		v["arith.ns_per_op"] = v["arith.mpfr_ms"] * 1e6 / e
	}
	spans := tr.snapshot()
	addSelfTimes(v, spans, len(traced))
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", r.t.name, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	r.out.notes = append(r.out.notes,
		fmt.Sprintf("# traced rounds=%d spans=%d written to %s", len(traced), len(spans), path),
		fmt.Sprintf("# ledger: pass %.1f ms = native %.1f + fpvm %.1f + mpfr %.1f + remainder %.1f",
			v["ledger.pass_ms"], nat, v["fpvm.overhead_ms"], v["arith.mpfr_ms"], v["ledger.remainder_ms"]),
		fmt.Sprintf("# tracing overhead: traced pass %.1f ms - untraced pass %.1f ms = %.2f ms",
			median(traced), median(untraced), v["trace.overhead_ms"]))
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// addCounts sums the modeled counters of one pass's results into the
// per-layer metrics.
func addCounts(v map[string]float64, res []session.Result) {
	for _, x := range res {
		v["trap.delivered"] += float64(x.Machine.Trap.Delivered)
		v["trap.delivery_mcycles"] += float64(x.Machine.Trap.EntryCycles+x.Machine.Trap.ExitCycles) / 1e6
		v["fpvm.emulated"] += float64(x.VM.Emulated)
		v["fpvm.decode_misses"] += float64(x.VM.DecodeMisses)
		v["fpvm.promotions"] += float64(x.VM.Promotions)
		v["fpvm.demotions"] += float64(x.VM.Demotions)
		v["fpvm.gc_passes"] += float64(x.VM.GC.Passes)
		v["fpvm.arena_high_water"] += float64(x.VM.GC.ArenaHighWater)
		v["fpvm.decode_mcycles"] += float64(x.VM.Cycles.Decode) / 1e6
		v["fpvm.bind_mcycles"] += float64(x.VM.Cycles.Bind) / 1e6
		v["fpvm.emulate_mcycles"] += float64(x.VM.Cycles.Emulate) / 1e6
		v["fpvm.gc_mcycles"] += float64(x.VM.Cycles.GC) / 1e6
		v["jit.sb_compiled"] += float64(x.Machine.SBCompiled)
		v["jit.sb_hits"] += float64(x.Machine.SBHits)
		v["jit.coalesced"] += float64(x.VM.Coalesced)
	}
	if e := v["fpvm.emulated"]; e > 0 {
		v["jit.delivery_avoided_ratio"] = 1 - v["trap.delivered"]/e
	}
}

// layerSetupCosts times the build and static-analysis layers over the
// workload's programs: the median of three rounds of Workload.Build (which
// calls asm.Assemble) and of patch.Apply, summed over programs.
func (r *batchRun) layerSetupCosts(v map[string]float64) error {
	var build, analyze []float64
	for rep := 0; rep < 3; rep++ {
		var bsum, psum time.Duration
		for _, w := range workloads.All() {
			t0 := time.Now()
			prog, err := w.Build()
			bsum += time.Since(t0)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := patch.Apply(prog, nil); err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			psum += time.Since(t1)
		}
		build = append(build, ms(bsum))
		analyze = append(analyze, ms(psum))
	}
	v["asm.assemble_ms"] = median(build)
	v["patch.apply_ms"] = median(analyze)
	return nil
}

// haltSource is the smallest guest program: it only halts.
const haltSource = ".text\n\thalt\n"

// sessionProbe times the session layer alone on a halt-only program: the
// first run on a new session (cold) and the median of warm re-runs (reset).
// memSize is the guest memory size (0 = the machine default).
func sessionProbe(v map[string]float64, memSize int) error {
	prog, err := asm.Assemble(haltSource)
	if err != nil {
		return err
	}
	cfg := session.Config{System: arith.Vanilla{}}
	cfg.MemSize = memSize
	var cold []float64
	var warm []float64
	for rep := 0; rep < 5; rep++ {
		s := session.New()
		t0 := time.Now()
		if _, err := s.Run(prog, cfg); err != nil {
			return err
		}
		cold = append(cold, ms(time.Since(t0)))
		for i := 0; i < 100; i++ {
			t1 := time.Now()
			if _, err := s.Run(prog, cfg); err != nil {
				return err
			}
			warm = append(warm, float64(time.Since(t1))/1e3)
		}
	}
	v["session.cold_ms"] = median(cold)
	v["session.reset_us"] = median(warm)
	return nil
}
