package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/progen"
	"fpvm/internal/session"
)

// offeredRate is the fixed offered load in requests per second. The mix
// costs fpvm-serve about 25 ms of CPU per request on a 2-core host in a slow
// window, so this keeps the server about a quarter busy, well below the
// rate at which its backlog grows. A second, higher rate was dropped: with
// an earlier mix, its tail, set by bursts of MPFR requests queueing on the
// two connections, spread too widely across seeds to gate on.
const offeredRate = 20.0

// Request classes of the serve mix.
const (
	classNamed = iota // a bundled target under Vanilla+JIT: cached program, shared superblocks
	classAsm          // inline progen source: assembled, analyzed and predecoded per request
	classMPFR         // a bundled target under MPFR-200 (see serveMPFR)
	numClasses
)

var classNames = [numClasses]string{"named", "asm", "mpfr"}

// serveTier is the rung of the named and asm classes: Vanilla with sequence
// emulation and the trace JIT, as fpvm-serve's "seqlen" and "jitthreshold"
// fields.
var serveTier = tier{seqLen: mpfrJIT.seqLen, jit: mpfrJIT.jit}

// serveMPFR is the rung of the mpfr class: MPFR-200 with sequence emulation
// but without the trace JIT. Served MPFR+JIT runs of a bundled target adopt
// superblocks from fpvm-serve's shared cache, and from the second request
// on their output differs from every in-process MPFR-200 run of the same
// program (see mpfrJITProbe). Until that is fixed the class measures MPFR
// arithmetic through the server on the rung whose output is right.
var serveMPFR = tier{mpfr: true, seqLen: mpfrJIT.seqLen}

// The mix, as slots in every block of mixBlock consecutive requests: each
// named target, the asm pool as a whole, and the MPFR target. A block holds
// its slots in a seeded order, so the mix is exact over every block and the
// heavy MPFR requests are spread evenly through the run.
//
// The weights place each end-to-end percentile inside one class's band, not
// on an edge between two, where it would jump from run to run. From the
// fastest: lorenz-short, FBench, an asm request, Lorenz, the three-body
// orbit, and far above them an MPFR Lorenz. Half the requests are asm,
// above the 4 lorenz-short and FBench slots, so the median request is a
// cold asm one, two thirds of which is assembly and static analysis: a
// slower cold path moves p50_ms. The 2 MPFR slots hold the top tenth, so
// tail_ms (about p98) is an MPFR request.
var (
	namedTargets = []struct {
		key   string
		slots int
	}{
		{"example:errorbounds/lorenz-short", 3},
		{"workload:FBench", 1},
		{"workload:Lorenz Attractor", 3},
		{"example:threebody/orbit", 1},
	}
	asmSlots   = 10
	mpfrTarget = "workload:Lorenz Attractor"
	mpfrSlots  = 2
)

// mixBlock is the number of requests over which the mix is exact.
const mixBlock = 20

// asmPoolSize is how many distinct progen programs the asm class draws
// from; each is still assembled afresh by the server on every request.
const asmPoolSize = 128

// progen sizes for the asm class: a chain of asmChain FP instructions in a
// loop of asmIters passes. A long chain run a few times makes the cold path
// (assembly, static analysis, predecode) most of an asm request's time, and
// the request long enough (about 10 ms) that the host's wake-up latency, a
// millisecond or more when the server has been idle, is a small part of it.
const (
	asmChain = 800
	asmIters = 3
)

// asmWarmups is how many asm programs a set-up sends. Each request of the
// class is cold whatever came before, so warming them all would only
// lengthen the set-up.
const asmWarmups = 4

// serveMemSize is fpvm-serve's default per-session guest memory (-mem-kib
// 1024); the session probe of a serve run uses the same geometry.
const serveMemSize = 1 << 20

// reqSpec is one distinct request of the mix with its references.
type reqSpec struct {
	class  int
	key    string
	slots  int // slots per mix block (asm: the pool's slots are shared)
	body   []byte
	src    string // asm source (asm class only)
	prog   *isa.Program
	tier   tier
	native nativeRef
	want   string // expected MPFR output digest (mpfr class only)
}

// check returns "" when a served or in-process output matches the spec's
// reference.
func (s *reqSpec) check(out string) string {
	if s.class == classMPFR {
		if got := digest(out); got != s.want {
			return fmt.Sprintf("MPFR output digest %s, want %s", got, s.want)
		}
		return ""
	}
	if out != s.native.out {
		return fmt.Sprintf("output %q differs from native %q", out, s.native.out)
	}
	return ""
}

// buildMix builds every distinct request with its references: a native run
// of the same program and, for MPFR, the recorded digest.
func buildMix(rng *rand.Rand) ([]*reqSpec, error) {
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	var specs []*reqSpec
	add := func(class int, key string, slots int, prog *isa.Program, src string) {
		t := serveTier
		if class == classMPFR {
			t = serveMPFR
		}
		specs = append(specs, &reqSpec{class: class, key: key, slots: slots, body: requestBody(t, key, src),
			src: src, prog: prog, tier: t})
	}
	for _, t := range namedTargets {
		prog, err := buildTarget(t.key)
		if err != nil {
			return nil, err
		}
		add(classNamed, t.key, t.slots, prog, "")
	}
	for i := 0; i < asmPoolSize; i++ {
		src := progen.FPLoopSource(rng, asmChain, asmIters)
		prog, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("progen source %d: %w", i, err)
		}
		add(classAsm, "asm#"+strconv.Itoa(i), asmSlots, prog, src)
	}
	prog, err := buildTarget(mpfrTarget)
	if err != nil {
		return nil, err
	}
	add(classMPFR, mpfrTarget, mpfrSlots, prog, "")
	rec, ok := digests[mpfrTarget]
	if !ok || rec.Image != imageDigest(prog) {
		return nil, fmt.Errorf("%s: build does not match the image recorded in %s", mpfrTarget, digestFile)
	}
	specs[len(specs)-1].want = rec.Output

	var nr nativeRunner
	for _, s := range specs {
		if s.native, err = nr.run(s.prog); err != nil {
			return nil, fmt.Errorf("%s: %w", s.key, err)
		}
	}
	return specs, nil
}

// requestBody is the /run body that runs a bundled target (src == "") or an
// inline source at tier t.
func requestBody(t tier, key, src string) []byte {
	req := map[string]any{"seqlen": t.seqLen, "jitthreshold": t.jit}
	if src != "" {
		req["asm"] = src
	} else {
		req["workload"] = key
	}
	if t.mpfr {
		req["arith"], req["prec"] = "mpfr", mpfrPrec
	}
	body, _ := json.Marshal(req) // a map of strings and ints always marshals
	return body
}

func buildTarget(key string) (*isa.Program, error) {
	t, err := oracle.Lookup(key)
	if err != nil {
		return nil, err
	}
	return t.Build()
}

// arrival is one scheduled request: when it is due, relative to the start
// of the schedule, and which spec it sends.
type arrival struct {
	due  time.Duration
	spec int
}

// openLoop draws a seeded Poisson arrival process at rate r over d: the gaps
// are exponential with mean 1/r. The schedule does not depend on how fast
// anything is served.
func openLoop(rng *rand.Rand, r float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / r
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// mixSlots lays out one mix block: one entry per slot, each the list of spec
// indices the slot draws from. The asm slots draw from the whole pool.
func mixSlots(specs []*reqSpec) [][]int {
	var block [][]int
	var pool []int
	for i, s := range specs {
		if s.class == classAsm {
			pool = append(pool, i)
			continue
		}
		for k := 0; k < s.slots; k++ {
			block = append(block, []int{i})
		}
	}
	for k := 0; k < asmSlots; k++ {
		block = append(block, pool)
	}
	return block
}

// assignMix gives each of n requests a spec: block after block, the slots in
// a seeded order, and from a slot with several specs one drawn at random.
func assignMix(rng *rand.Rand, n int, block [][]int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(block)) {
			if len(out) == n {
				break
			}
			choices := block[i]
			out = append(out, choices[rng.Intn(len(choices))])
		}
	}
	return out
}

// schedule is the full seeded request stream of one run.
func schedule(rng *rand.Rand, r float64, d time.Duration, specs []*reqSpec) []arrival {
	dues := openLoop(rng, r, d)
	mix := assignMix(rng, len(dues), mixSlots(specs))
	out := make([]arrival, len(dues))
	for i := range dues {
		out[i] = arrival{due: dues[i], spec: mix[i]}
	}
	return out
}

// sample is the record of one sent request.
type sample struct {
	spec            int
	due, sent, done time.Time
	ok              bool
	cycles          uint64
	traced          bool
}

// latency is the time from when the request was due to its response:
// it includes any wait behind earlier requests, so a stall is charged to
// every request it delays.
func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how long after its due time the generator dispatched the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// serveResp is the part of a /run response the benchmark checks.
type serveResp struct {
	Output           string `json:"output"`
	Cycles           uint64 `json:"cycles"`
	Fault            string `json:"fault"`
	BudgetExhausted  bool   `json:"budget_exhausted"`
	DeadlineExceeded bool   `json:"deadline_exceeded"`
}

// server is a running fpvm-serve child.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer starts bin on an ephemeral loopback port and returns once it
// has announced its address. The child is killed if this process dies.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		rd := bufio.NewReader(errPipe)
		line, _ := rd.ReadString('\n')
		addr <- line
		_, _ = io.Copy(io.Discard, rd) // keep draining so the child never blocks on stderr
		s.done <- cmd.Wait()
	}()
	select {
	case line := <-addr:
		const marker = "listening on "
		i := strings.Index(line, marker)
		if i < 0 {
			s.kill()
			return nil, fmt.Errorf("fpvm-serve did not announce its address: %q", line)
		}
		s.base = "http://" + strings.Fields(line[i+len(marker):])[0]
	case <-time.After(10 * time.Second):
		s.kill()
		return nil, errors.New("fpvm-serve did not start within 10s")
	}
	return s, nil
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// stop asks the child to drain and exit, kills it if it has not within 10s,
// and waits until it has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fpvm-serve /healthz not OK within 10s")
}

// stats fetches and parses /stats.
func (s *server) stats(c *http.Client) (serveStats, error) {
	resp, err := c.Get(s.base + "/stats")
	if err != nil {
		return serveStats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return serveStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serveStats{}, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return parseServeStats(body)
}

// serveRun is the state of one serve workload run.
type serveRun struct {
	o      options
	specs  []*reqSpec
	client *http.Client
	srv    *server
	tr     *tracer

	mu          sync.Mutex // guards out.attempted and out.failed
	out         outcome
	maxInFlight int64
	replayed    int // requests the traced run replayed in process
}

func (r *serveRun) fail(key, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.out.failed++
	if r.out.failed <= 5 {
		fmt.Fprintf(r.o.stderr, "perfbench: serve: %s: %.300s\n", key, why)
	}
}

// send posts one request and checks its response; root is the request's
// trace span (nil when untraced).
func (r *serveRun) send(spec *reqSpec, root *active) (cycles uint64, ok bool) {
	rt := r.tr.start("http.roundtrip", root)
	resp, err := r.client.Post(r.srv.base+"/run", "application/json", bytes.NewReader(spec.body))
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rt.finish()
	r.mu.Lock()
	r.out.attempted++
	r.mu.Unlock()
	if err != nil {
		r.fail(spec.key, err.Error())
		return 0, false
	}
	if resp.StatusCode != http.StatusOK {
		r.fail(spec.key, fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
		return 0, false
	}
	dec := r.tr.start("client.decode", root)
	var sr serveResp
	err = json.Unmarshal(body, &sr)
	dec.finish()
	ck := r.tr.start("bench.check", root)
	defer ck.finish()
	why := ""
	switch {
	case err != nil:
		why = "bad response body: " + err.Error()
	case sr.Fault != "":
		why = "fault: " + sr.Fault
	case sr.BudgetExhausted:
		why = "instruction budget exhausted"
	case sr.DeadlineExceeded:
		why = "deadline exceeded"
	default:
		why = spec.check(sr.Output)
	}
	if why != "" {
		r.fail(spec.key, why)
		return 0, false
	}
	return sr.Cycles, true
}

// setup starts a server, waits for /healthz and sends one warm-up request
// per named and MPFR spec and for the first asmWarmups asm programs, in
// order. It returns the wall time from the child's start.
func (r *serveRun) setup() (time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(serveBin)
	if err != nil {
		return 0, err
	}
	r.srv = srv
	if err := srv.waitHealthy(r.client); err != nil {
		return 0, err
	}
	warmed := 0
	for _, s := range r.specs {
		if s.class == classAsm {
			if warmed == asmWarmups {
				continue
			}
			warmed++
		}
		r.send(s, nil)
	}
	return time.Since(t0), nil
}

// drive sends the open-loop schedule and returns one sample per request.
// With a tracer, every other request is traced.
func (r *serveRun) drive(sched []arrival) []sample {
	samples := make([]sample, len(sched))
	var inFlight, maxInFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		n := inFlight.Add(1)
		for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
		}
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			defer inFlight.Add(-1)
			s := sample{spec: a.spec, due: due, sent: time.Now(), traced: r.tr != nil && i%2 == 1}
			var root *active
			if s.traced {
				root = r.tr.startAt("client.request", nil, due)
				w := r.tr.startAt("client.wait", root, due)
				w.finish()
			}
			s.cycles, s.ok = r.send(r.specs[a.spec], root)
			s.done = time.Now()
			root.finish()
			samples[i] = s
		}(i, a, due)
	}
	wg.Wait()
	r.maxInFlight = maxInFlight.Load()
	return samples
}

// runServe measures fpvm-serve under an open loop at offeredRate.
func runServe(o options) (outcome, error) {
	specs, err := buildMix(o.rng)
	if err != nil {
		return outcome{}, err
	}
	conns := runtime.NumCPU()
	r := &serveRun{
		o:     o,
		specs: specs,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
		out: outcome{values: map[string]float64{}},
	}
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()
	probe, err := startHostProbe()
	if err != nil {
		return outcome{}, err
	}
	defer probe.stop()
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if r.srv != nil {
			r.srv.stop()
			r.srv = nil
		}
		d, err := r.setup()
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

	sched := schedule(o.rng, offeredRate, o.seconds, specs)
	if o.trace {
		r.tr = newTracer()
	}
	st0, err := r.srv.stats(r.client)
	if err != nil {
		return outcome{}, err
	}
	cpu0, err := readProcCPU(r.srv.pid())
	if err != nil {
		return outcome{}, err
	}
	stop := make(chan struct{})
	probed := make(chan []float64)
	go func() { probed <- probeDuring(probe, stop) }()
	samples := r.drive(sched)
	close(stop)
	readings := <-probed
	if len(readings) == 0 {
		return outcome{}, errors.New("the host probe took no reading")
	}
	cpu1, err := readProcCPU(r.srv.pid())
	if err != nil {
		return outcome{}, err
	}
	st1, err := r.srv.stats(r.client)
	if err != nil {
		return outcome{}, err
	}
	rss, err := readPeakRSSMiB(r.srv.pid())
	if err != nil {
		return outcome{}, err
	}
	r.srv.stop()
	r.srv = nil

	var lat []float64
	completed := 0
	for _, s := range samples {
		lat = append(lat, ms(s.latency()))
		if s.ok {
			completed++
		}
	}
	tl, pct, ok := tail(lat)
	if !ok {
		return outcome{}, fmt.Errorf("only %d requests measured, too few for a tail", len(lat))
	}
	cpuPerReq := 1e3 * (cpu1.Seconds() - cpu0.Seconds()) / float64(max(completed, 1))
	r.out.notes = append(r.out.notes,
		fmt.Sprintf("# offered %.0f req/s for %v: %d requests, %d ok, at most %d in flight; %d set-ups, raw s %.3f, normalized s %.3f",
			offeredRate, o.seconds, len(samples), completed, r.maxInFlight, setupReps, rawSetups, setups),
		fmt.Sprintf("# raw: p50 %.2f ms, tail (p%.2f of %d) %.1f ms; %.2f ms server CPU per request; host probe %.3f ms per call (reference %.1f, %d readings)",
			median(lat), pct, len(lat), tl, cpuPerReq, median(readings), hostProbeRefMs, len(readings)))
	if !o.trace {
		v := r.out.values
		v["setup_s"] = median(setups)
		v["success_share"] = 1 - float64(r.out.failed)/float64(r.out.attempted)
		scale := hostScale(readings)
		v["p50_ms"] = median(lat) * scale
		v["tail_ms"] = tl * scale
		v["rss_peak_mib"] = rss
		v["modeled_slowdown"] = mixSlowdown(specs, samples)
		return r.out, nil
	}
	return r.out, r.layers(samples, st0, st1)
}

// serveProbeCalls and serveProbeEvery size the host-probe readings taken
// while the schedule plays: about 22 ms of one core every 250 ms on the
// reference host.
const (
	serveProbeCalls = 2
	serveProbeEvery = 250 * time.Millisecond
)

// probeDuring takes a host-probe reading every serveProbeEvery until stop is
// closed and returns them. The readings share the cores with the server,
// so they see the same contention its requests do. A server that got busier
// would slow them a little too, by its added share of the two cores, which
// damps a serve regression in the normalized times but never reverses it.
func probeDuring(p *hostProbe, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(serveProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		v, err := p.read(serveProbeCalls)
		if err != nil {
			return out
		}
		out = append(out, v)
	}
}

// mixSlowdown is the modeled slowdown of the mix: for each distinct
// request, the median over its completed requests of modeled cycles ÷
// native modeled cycles, then the geomean over distinct requests weighted by
// their share of the mix (an asm program's share is the asm slots ÷ the pool
// size). Weighting by the mix, not by how often the seed happened to draw
// each program, and taking the median per request, which discounts a run
// that found more or fewer shared superblocks than usual, keep it steady
// from seed to seed.
func mixSlowdown(specs []*reqSpec, samples []sample) float64 {
	ratios := make([][]float64, len(specs))
	for _, s := range samples {
		if s.ok {
			ratios[s.spec] = append(ratios[s.spec], float64(s.cycles)/float64(specs[s.spec].native.cycles))
		}
	}
	var wsum, lsum float64
	for i, xs := range ratios {
		if len(xs) == 0 {
			continue
		}
		w := float64(specs[i].slots)
		if specs[i].class == classAsm {
			w /= asmPoolSize
		}
		wsum += w
		lsum += w * math.Log(median(xs))
	}
	if wsum == 0 {
		return 0
	}
	return math.Exp(lsum / wsum)
}

// replayCount is how many of the measured requests the traced run replays
// in process to split their time across layers.
const replayCount = 120

// layers builds the per-layer metrics of a traced serve run from its
// samples, the /stats delta, and an in-process replay of the first
// replayCount requests through session.Pool.
func (r *serveRun) layers(samples []sample, st0, st1 serveStats) error {
	v := layerValues()
	r.out.values = v

	var byClass [numClasses][]float64
	var traced, untraced, late []float64
	for _, s := range samples {
		c := r.specs[s.spec].class
		byClass[c] = append(byClass[c], ms(s.latency()))
		late = append(late, ms(s.late()))
		if s.traced {
			traced = append(traced, ms(s.latency()))
		} else {
			untraced = append(untraced, ms(s.latency()))
		}
	}
	for c, name := range classNames {
		v["serve.p50_ms."+name] = median(byClass[c])
	}
	v["trace.overhead_ms"] = median(traced) - median(untraced)
	if tl, _, ok := tail(late); ok {
		v["client.late_ms.tail"] = tl
	}
	v["client.in_flight_max"] = float64(r.maxInFlight)
	d := st1.since(st0)
	v["session.pool_hit_ratio"] = d.poolHitRatio()
	v["serve.shared_sb_hit_rate"] = d.sharedSBHitRate()
	v["serve.shed"] = float64(d.shed)
	v["serve.errors"] = float64(d.errors)
	spans := r.tr.snapshot()
	addSelfTimes(v, spans, len(traced))
	if err := r.replay(v, samples, r.tr); err != nil {
		return err
	}
	all := r.tr.snapshot()
	addSelfTimes(v, all[len(spans):], r.replayed)
	spans = all
	if err := r.asmLayerCosts(v); err != nil {
		return err
	}
	if err := sessionProbe(v, serveMemSize); err != nil {
		return err
	}
	mism, err := mpfrJITProbe(serveBin, r.client, r.specs[len(r.specs)-1])
	if err != nil {
		return err
	}
	v["serve.mpfr_jit_mismatches"] = float64(mism)
	v["go.gc_cpu_fraction"] = gcCPUFraction()
	path := filepath.Join(traceDir, fmt.Sprintf("serve-open-seed%d.jsonl", r.o.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	r.out.notes = append(r.out.notes,
		fmt.Sprintf("# traced %d of %d requests, %d spans written to %s", len(traced), len(samples), len(spans), path),
		fmt.Sprintf("# ledger per request: in-process %.2f ms = native %.2f + fpvm %.2f + mpfr %.2f + remainder %.2f",
			v["ledger.pass_ms"], v["machine.native_ms"], v["fpvm.overhead_ms"], v["arith.mpfr_ms"], v["ledger.remainder_ms"]),
		fmt.Sprintf("# tracing overhead: traced p50 %.2f ms - untraced p50 %.2f ms = %.3f ms",
			median(traced), median(untraced), v["trace.overhead_ms"]))
	return nil
}

// replay runs the first replayCount measured requests in process, one at a
// time, the way the server runs them: assemble an asm source, check a
// session out of a session.Pool, run, return it. Each replayed request is
// followed by a native run and a Vanilla run at the same tier of the same
// program, which split its time into machine, fpvm and arith shares; the
// remainder is what the request paid besides (assembly, pool, reset). It
// also gives serve.http_overhead_ms. Spans go to tr, one trace per request.
func (r *serveRun) replay(v map[string]float64, samples []sample, tr *tracer) error {
	n := min(replayCount, len(samples))
	var pool session.Pool
	var nr nativeRunner
	var served, local []float64
	var nativeSum, vanillaSum, runSum, mpfrSum time.Duration
	var results []session.Result
	var insts float64
	m0 := readMem()
	for _, s := range samples[:n] {
		spec := r.specs[s.spec]
		root := tr.start("bench.replay", nil)
		t0 := time.Now()
		prog := spec.prog
		if spec.class == classAsm {
			p, err := asm.Assemble(spec.src)
			if err != nil {
				return err
			}
			prog = p
		}
		sess := pool.Get()
		sp := tr.start("session.Run", root)
		res, err := sess.Run(prog, spec.tier.config())
		sp.finish()
		pool.Put(sess)
		d := time.Since(t0)
		r.out.attempted++
		if err == nil {
			if why := truncation(res); why != "" {
				err = errors.New(why)
			} else if why := spec.check(res.Output); why != "" {
				err = errors.New(why)
			}
		}
		if err != nil {
			root.finish()
			r.fail(spec.key, "in-process replay: "+err.Error())
			continue
		}
		results = append(results, res)
		runSum += d
		if s.ok {
			served = append(served, ms(s.done.Sub(s.sent)))
			local = append(local, ms(d))
		}

		sp = tr.start("machine.Run", root)
		t1 := time.Now()
		ref, err := nr.run(prog)
		nd := time.Since(t1)
		sp.finish()
		if err != nil {
			return err
		}
		nativeSum += nd
		insts += float64(ref.insts)

		vs := pool.Get()
		sp = tr.start("session.Run", root)
		t2 := time.Now()
		vres, err := vs.Run(prog, spec.tier.vanillaConfig())
		vd := time.Since(t2)
		sp.finish()
		pool.Put(vs)
		root.finish()
		if err != nil || truncation(vres) != "" {
			return fmt.Errorf("%s: vanilla at tier: %v %s", spec.key, err, truncation(vres))
		}
		vanillaSum += vd
		if spec.class == classMPFR {
			mpfrSum += d - vd
		}
	}
	m1 := readMem()
	r.replayed = len(results)
	k := float64(len(results))
	if k == 0 {
		return errors.New("in-process replay: no run succeeded")
	}
	v["serve.http_overhead_ms"] = median(served) - median(local)
	v["machine.native_ms"] = ms(nativeSum) / k
	v["fpvm.overhead_ms"] = (ms(vanillaSum) - ms(nativeSum)) / k
	v["arith.mpfr_ms"] = ms(mpfrSum) / k
	v["ledger.pass_ms"] = ms(runSum) / k
	v["ledger.remainder_ms"] = v["ledger.pass_ms"] - v["machine.native_ms"] - v["fpvm.overhead_ms"] - v["arith.mpfr_ms"]
	v["go.alloc_mib_per_pass"] = float64(m1.alloc-m0.alloc) / (1 << 20) / k
	v["go.mallocs_per_pass"] = float64(m1.mallocs-m0.mallocs) / k
	v["go.gc_cycles_per_pass"] = float64(m1.numGC-m0.numGC) / k

	addCounts(v, results)
	for _, name := range []string{
		"trap.delivered", "trap.delivery_mcycles", "fpvm.emulated", "fpvm.decode_misses",
		"fpvm.promotions", "fpvm.demotions", "fpvm.gc_passes", "fpvm.arena_high_water",
		"fpvm.decode_mcycles", "fpvm.bind_mcycles", "fpvm.emulate_mcycles", "fpvm.gc_mcycles",
		"jit.sb_compiled", "jit.sb_hits", "jit.coalesced",
	} {
		v[name] /= k
	}
	v["machine.instructions"] = insts / k
	v["machine.ns_per_inst"] = v["machine.native_ms"] * 1e6 / v["machine.instructions"]
	if d := v["trap.delivered"]; d > 0 {
		v["fpvm.ns_per_trap"] = v["fpvm.overhead_ms"] * 1e6 / d
	}
	if e := v["fpvm.emulated"]; e > 0 {
		v["arith.ns_per_op"] = v["arith.mpfr_ms"] * 1e6 / e
	}
	return nil
}

// asmLayerCosts times the cold path of one asm request: asm.Assemble and
// patch.Apply, each as the median over the asm pool.
func (r *serveRun) asmLayerCosts(v map[string]float64) error {
	var as, ps []float64
	for _, s := range r.specs {
		if s.class != classAsm {
			continue
		}
		t0 := time.Now()
		prog, err := asm.Assemble(s.src)
		as = append(as, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := patch.Apply(prog, nil); err != nil {
			return err
		}
		ps = append(ps, ms(time.Since(t1)))
	}
	v["asm.assemble_ms"] = median(as)
	v["patch.apply_ms"] = median(ps)
	return nil
}

// mpfrJITProbes is how many identical MPFR-200+JIT requests the probe sends.
const mpfrJITProbes = 3

// mpfrJITProbe starts a fresh server, sends it mpfrJITProbes identical
// MPFR-200+JIT requests for the mpfr class's target, and returns how many
// outputs differ from the recorded digest. Every one should match; at this
// writing all but the first do not, because the later requests adopt
// superblocks from the shared cache. The probe runs on its own server so the
// traces it publishes never reach the measured one.
func mpfrJITProbe(bin string, c *http.Client, spec *reqSpec) (int, error) {
	srv, err := startServer(bin)
	if err != nil {
		return 0, err
	}
	defer srv.stop()
	if err := srv.waitHealthy(c); err != nil {
		return 0, err
	}
	body := requestBody(mpfrJIT, spec.key, "")
	mismatches := 0
	for i := 0; i < mpfrJITProbes; i++ {
		resp, err := c.Post(srv.base+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		var sr serveResp
		if resp.StatusCode != http.StatusOK || json.Unmarshal(b, &sr) != nil || spec.check(sr.Output) != "" {
			mismatches++
		}
	}
	return mismatches, nil
}
