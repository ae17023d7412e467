package sanitize

// White-box unit coverage for the measurement arithmetic (RelError,
// LostBits, expDrop), the enclosure invariants (widen, contain,
// certified), report rendering, and the sanitizer's boundary/truncation
// edges that the corpus and invariance suites do not reach.

import (
	"math"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/fpu"
	"fpvm/internal/telemetry"
)

func bits(v float64) uint64 { return math.Float64bits(v) }

func TestRelError(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name     string
		ref, got float64
		want     float64
	}{
		{"equal-bits", 1.5, 1.5, 0},
		{"both-nan", nan, nan, 0},
		{"ref-nan", nan, 1.0, inf},
		{"got-nan", 1.0, nan, inf},
		{"agreeing-inf", inf, inf, 0},
		{"disagreeing-inf", inf, -inf, inf},
		{"inf-vs-finite", inf, 1.0, inf},
		{"near-zero-ref-absolute", 0, 1e-20, 1e-20},
		{"relative", 2.0, 2.5, 0.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := RelError(bits(tc.ref), bits(tc.got))
			if math.IsInf(tc.want, 1) {
				if !math.IsInf(got, 1) {
					t.Fatalf("RelError = %g, want +Inf", got)
				}
				return
			}
			if math.Abs(got-tc.want) > tc.want*1e-9+1e-300 {
				t.Fatalf("RelError = %g, want %g", got, tc.want)
			}
		})
	}
	// NaNs with different payloads still agree (same class).
	otherNaN := math.Float64frombits(bits(nan) ^ 1)
	if got := RelError(bits(nan), bits(otherNaN)); got != 0 {
		t.Errorf("NaN payload difference scored %g, want 0", got)
	}
}

func TestLostBits(t *testing.T) {
	cases := []struct {
		rel  float64
		want float64
	}{
		{0, 0},
		{-1, 0},
		{1, 53},
		{2, 53},
		{math.Inf(1), 53},
		{math.Ldexp(1, -60), 0},  // below the noise floor clamps to 0
		{math.Ldexp(1, -43), 10}, // 53 - 43
		{math.Ldexp(1, -3), 50},  // 53 - 3
	}
	for _, tc := range cases {
		if got := LostBits(tc.rel); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("LostBits(%g) = %g, want %g", tc.rel, got, tc.want)
		}
	}
}

func TestSample(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %g, want 0", s.Mean())
	}
	s.Note(0.5, true)
	s.Note(0.1, false)
	s.Note(0.3, true)
	if s.Count != 3 || s.Diverse != 2 {
		t.Errorf("Count=%d Diverse=%d, want 3/2", s.Count, s.Diverse)
	}
	if s.Max != 0.5 {
		t.Errorf("Max = %g, want 0.5", s.Max)
	}
	if m := s.Mean(); math.Abs(m-0.3) > 1e-12 {
		t.Errorf("Mean = %g, want 0.3", m)
	}
}

func TestExpDrop(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name    string
		a, b, r float64
		want    int
	}{
		{"zero-a", 0, 1, 1, 0},
		{"zero-b", 1, 0, 1, 0},
		{"nan-operand", nan, 1, 1, 0},
		{"inf-operand", 1, inf, inf, 0},
		{"exact-total-cancel", 1, 1, 0, 53},
		{"nan-result", 1, 2, nan, 0},
		{"inf-result", 1, 2, inf, 0},
		{"no-drop", 4, 1, 5, 0},
		{"grew", 1, 1, 2, 0},
		{"drop-10", 1024, 1023, 1, 10},
		{"denormal-clamp", 1, 1 - math.Ldexp(1, -60), math.Ldexp(1, -60), 53},
	}
	for _, tc := range cases {
		if got := expDrop(tc.a, tc.b, tc.r); got != tc.want {
			t.Errorf("%s: expDrop(%g,%g,%g) = %d, want %d", tc.name, tc.a, tc.b, tc.r, got, tc.want)
		}
	}
}

func TestWiden(t *testing.T) {
	in := arith.Interval{Lo: 1, Hi: 2}
	w := widen(arith.OpSin, in)
	if w.Lo >= in.Lo || w.Hi <= in.Hi {
		t.Errorf("transcendental not widened: %+v -> %+v", in, w)
	}
	if d := in.Lo - w.Lo; d != 2*(in.Lo-math.Nextafter(in.Lo, math.Inf(-1))) {
		t.Errorf("Lo widened by %g, want exactly 2 ulps", d)
	}
	if got := widen(arith.OpAdd, in); got != in {
		t.Errorf("basic op widened: %+v -> %+v", in, got)
	}
	nanIV := arith.Interval{Lo: math.NaN(), Hi: math.NaN()}
	got := widen(arith.OpExp, nanIV)
	if !math.IsNaN(got.Lo) || !math.IsNaN(got.Hi) {
		t.Errorf("NaN endpoints disturbed: %+v", got)
	}
}

func TestContain(t *testing.T) {
	nan := math.NaN()
	real := arith.Interval{Lo: 1, Hi: 2}
	poisoned := contain(nan, real)
	if !math.IsNaN(poisoned.Lo) || !math.IsNaN(poisoned.Hi) {
		t.Errorf("NaN primary kept a real enclosure: %+v", poisoned)
	}
	if got := contain(3, real); !math.IsNaN(got.Lo) {
		t.Errorf("escaped primary kept its enclosure: %+v", got)
	}
	if got := contain(1.5, real); got != real {
		t.Errorf("contained primary perturbed: %+v", got)
	}
	nanIV := arith.Interval{Lo: nan, Hi: nan}
	if got := contain(1.5, nanIV); !math.IsNaN(got.Lo) {
		t.Errorf("poisoned enclosure resurrected: %+v", got)
	}
}

func TestCertified(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		v    float64
		iv   arith.Interval
		want OutputStatus
	}{
		{"proved", 1.5, arith.Interval{Lo: 1, Hi: 2}, StatusProved},
		{"violated", 3, arith.Interval{Lo: 1, Hi: 2}, StatusViolated},
		{"nan-both", nan, arith.Interval{Lo: nan, Hi: nan}, StatusProved},
		{"nan-enclosure-only", 1.5, arith.Interval{Lo: nan, Hi: nan}, StatusIndeterminate},
		{"nan-value-only", nan, arith.Interval{Lo: 1, Hi: 2}, StatusIndeterminate},
	}
	for _, tc := range cases {
		if got := certified(tc.v, tc.iv); got.Status != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, got.Status, tc.want)
		}
	}
}

// directSanitizer builds a sanitizer plus its wrapping system for driving
// the seam by hand, without a VM.
func directSanitizer(o Options) (*Sanitizer, system) {
	s := New(o)
	return s, system{s}
}

func TestNewDefaults(t *testing.T) {
	s := New(Options{})
	if s.primary.Name() != "vanilla" {
		t.Errorf("default primary = %q, want vanilla", s.primary.Name())
	}
	if s.prec != DefaultPrec || s.threshold != DefaultThresholdBits || s.maxOutputs != DefaultMaxOutputs {
		t.Errorf("defaults not applied: prec=%d threshold=%g max=%d", s.prec, s.threshold, s.maxOutputs)
	}
	if s.Threshold() != DefaultThresholdBits {
		t.Errorf("Threshold() = %g", s.Threshold())
	}
	w := system{s}
	if w.Name() != "sanitize(vanilla)" {
		t.Errorf("Name() = %q", w.Name())
	}
}

func TestSystemDelegation(t *testing.T) {
	_, w := directSanitizer(Options{})
	if !w.IsNaN(w.FromFloat64(nil, math.NaN())) {
		t.Error("IsNaN lost a NaN")
	}
	if w.IsNaN(w.FromFloat64(nil, 1)) {
		t.Error("IsNaN invented a NaN")
	}
	if got := w.ToFloat64(w.FromFloat64(nil, 2.5)); got != 2.5 {
		t.Errorf("round-trip = %g", got)
	}
	v, ok := w.ToInt64(w.FromInt64(nil, 7), fpu.RCNearest)
	if !ok || v != 7 {
		t.Errorf("int round-trip = %d, %v", v, ok)
	}
	if w.OpCycles(arith.OpAdd) != (arith.Vanilla{}).OpCycles(arith.OpAdd) {
		t.Error("OpCycles does not delegate to the primary")
	}
	// A foreign (unwrapped) value is adopted as its own seed.
	raw := arith.Vanilla{}.FromFloat64(nil, 9)
	if got := w.ToFloat64(raw); got != 9 {
		t.Errorf("foreign value = %g, want 9", got)
	}
	sum := w.Apply(nil, arith.OpAdd, raw, w.FromFloat64(nil, 1), nil)
	if got := w.ToFloat64(sum); got != 10 {
		t.Errorf("foreign operand sum = %g, want 10", got)
	}
}

func TestBoundaryFlagging(t *testing.T) {
	s, _ := directSanitizer(Options{ThresholdBits: 20})
	lossy := triple{p: arith.Vanilla{}.FromFloat64(nil, 1), blameIdx: 3, blamePC: 0x99, blameLost: 30}

	// Below threshold: no flag.
	s.boundary(triple{p: lossy.p, blameIdx: 3, blamePC: 0x99, blameLost: 10})
	if rep := s.Snapshot(); rep.FlaggedSites != 0 {
		t.Fatalf("below-threshold value flagged %d site(s)", rep.FlaggedSites)
	}
	// No blame origin: no flag even when lossy.
	s.boundary(triple{p: lossy.p, blameIdx: -1, blameLost: 53})
	if rep := s.Snapshot(); rep.FlaggedSites != 0 {
		t.Fatalf("origin-less value flagged %d site(s)", rep.FlaggedSites)
	}

	// Unknown blame PC still earns a defensive row.
	s.boundary(lossy)
	rep := s.Snapshot()
	if rep.FlaggedSites != 1 {
		t.Fatalf("FlaggedSites = %d, want 1", rep.FlaggedSites)
	}
	site, ok := rep.Site(0x99)
	if !ok || !site.Flagged || site.Op != "?" || site.FlaggedLost != 30 {
		t.Fatalf("defensive site = %+v", site)
	}
	// A worse crossing raises FlaggedLost; a milder one does not lower it.
	s.boundary(triple{p: lossy.p, blameIdx: 3, blamePC: 0x99, blameLost: 40})
	s.boundary(triple{p: lossy.p, blameIdx: 3, blamePC: 0x99, blameLost: 25})
	rep2 := s.Snapshot()
	if site, _ := rep2.Site(0x99); site.FlaggedLost != 40 {
		t.Fatalf("FlaggedLost = %g, want 40", site.FlaggedLost)
	}

	// Truncated sanitizers stop flagging.
	s.Truncate()
	s.boundary(triple{p: lossy.p, blameIdx: 3, blamePC: 0x123, blameLost: 50})
	rep3 := s.Snapshot()
	if _, ok := rep3.Site(0x123); ok {
		t.Error("truncated sanitizer still flagging")
	}
}

func TestBoundaryTelemetry(t *testing.T) {
	s, w := directSanitizer(Options{ThresholdBits: 20})
	c := telemetry.NewCollector(0)
	s.BindTelemetry(c)
	s.SetSite(2, 0x40)
	// A compare on a hand-made lossy value reaches the boundary through the
	// public seam (both arguments are checked).
	lossy := triple{p: arith.Vanilla{}.FromFloat64(nil, 1), blameIdx: 2, blamePC: 0x40, blameLost: 30}
	w.Compare(lossy, w.FromFloat64(nil, 0))
	sites := c.Sites()
	if len(sites) < 3 || !sites[2].SanFlagged {
		t.Fatalf("telemetry site 2 not flagged: %+v", sites)
	}
	if sites[2].SanSamples != 0 {
		t.Errorf("boundary crossing counted as a sample: %+v", sites[2])
	}
	if sites[2].SanMaxLost != 30 {
		t.Errorf("SanMaxLost = %g, want 30", sites[2].SanMaxLost)
	}
}

func TestTruncationSeedsApply(t *testing.T) {
	s, w := directSanitizer(Options{Certify: true})
	if s.Truncated() {
		t.Fatal("fresh sanitizer reports truncated")
	}
	s.Truncate()
	if !s.Truncated() {
		t.Fatal("Truncate did not stick")
	}
	out := w.Apply(nil, arith.OpAdd, w.FromFloat64(nil, 1), w.FromFloat64(nil, 2), nil)
	tr, ok := out.(triple)
	if !ok {
		t.Fatalf("truncated Apply returned %T", out)
	}
	if got := w.ToFloat64(out); got != 3 {
		t.Errorf("truncated Apply = %g, want 3 (guest unharmed)", got)
	}
	if tr.blameIdx != -1 || tr.iv.Lo != 3 || tr.iv.Hi != 3 {
		t.Errorf("truncated result not seeded: %+v", tr)
	}
	// Promotions and outputs also degrade to seeds / no-ops.
	if p := w.FromFloat64(nil, 5).(triple); p.blameIdx != -1 || p.iv.Lo != 5 {
		t.Errorf("truncated FromFloat64 not seeded: %+v", p)
	}
	if p := w.FromInt64(nil, 6).(triple); p.blameIdx != -1 || p.iv.Lo != 6 {
		t.Errorf("truncated FromInt64 not seeded: %+v", p)
	}
	if got := w.Format(w.FromFloat64(nil, 7)); got != "7" {
		t.Errorf("truncated Format = %q", got)
	}
	rep := s.Snapshot()
	if !rep.Truncated || rep.Samples != 0 {
		t.Errorf("truncated snapshot: %+v", rep)
	}
	if rep.Certification == nil || !rep.Certification.Truncated || rep.Certification.Pass() {
		t.Errorf("truncated certification must fail: %+v", rep.Certification)
	}
}

func TestCertifyOutputCap(t *testing.T) {
	s, w := directSanitizer(Options{Certify: true, MaxOutputs: 2})
	for i := 0; i < 5; i++ {
		w.Format(w.FromFloat64(nil, float64(i)))
	}
	c := s.Snapshot().Certification
	if len(c.Outputs) != 2 || c.Dropped != 3 {
		t.Fatalf("outputs=%d dropped=%d, want 2/3", len(c.Outputs), c.Dropped)
	}
	if c.Pass() {
		t.Error("dropped outputs must fail certification")
	}
}

func TestResetReuse(t *testing.T) {
	s, w := directSanitizer(Options{Prec: 96, Certify: true})
	s.SetSite(0, 0x10)
	w.Format(w.Apply(nil, arith.OpAdd, w.FromFloat64(nil, 1), w.FromFloat64(nil, 2), nil))
	s.Truncate()
	if rep := s.Snapshot(); rep.Samples != 1 || len(rep.Sites) != 1 {
		t.Fatalf("pre-reset snapshot: %+v", rep)
	}

	s.Reset(Options{Prec: 192})
	if s.prec != 192 {
		t.Fatalf("prec = %d after Reset", s.prec)
	}
	rep := s.Snapshot()
	if rep.Samples != 0 || len(rep.Sites) != 0 || rep.Truncated || rep.Certification != nil {
		t.Fatalf("Reset left state behind: %+v", rep)
	}
	// The recycled sanitizer still works.
	s.SetSite(0, 0x20)
	out := w.Apply(nil, arith.OpMul, w.FromFloat64(nil, 3), w.FromFloat64(nil, 4), nil)
	if got := w.ToFloat64(out); got != 12 {
		t.Errorf("post-reset Apply = %g", got)
	}
	if rep := s.Snapshot(); rep.Samples != 1 || rep.Prec != 192 {
		t.Errorf("post-reset snapshot: samples=%d prec=%d", rep.Samples, rep.Prec)
	}
}

func TestReportWrite(t *testing.T) {
	s, w := directSanitizer(Options{ThresholdBits: 20})
	s.SetSite(0, 0x10)
	// A genuine catastrophic cancellation: (1+2^-30) - 1 under a shadow that
	// sees the exact result.
	a := w.Apply(nil, arith.OpAdd, w.FromFloat64(nil, 1), w.FromFloat64(nil, math.Ldexp(1, -30)), nil)
	s.SetSite(1, 0x18)
	d := w.Apply(nil, arith.OpSub, a, w.FromFloat64(nil, 1), nil)
	w.Format(d)

	rep := s.Snapshot()
	var sb strings.Builder
	rep.Write(&sb, 10)
	out := sb.String()
	for _, want := range []string{"sanitizer report", "0x00000018", "rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}

	// Truncated empty report renders the banner and nothing else.
	s.Reset(Options{})
	s.Truncate()
	sb.Reset()
	trunc := s.Snapshot()
	trunc.Write(&sb, 0)
	if !strings.Contains(sb.String(), "TRUNCATED") {
		t.Errorf("truncated banner missing:\n%s", sb.String())
	}

	// The top-N cap truncates rows.
	manyS, manyW := directSanitizer(Options{})
	for i := 0; i < 5; i++ {
		manyS.SetSite(i, uint64(0x100+8*i))
		manyW.Apply(nil, arith.OpAdd, manyW.FromFloat64(nil, 1), manyW.FromFloat64(nil, float64(i)), nil)
	}
	sb.Reset()
	many := manyS.Snapshot()
	many.Write(&sb, 2)
	if n := strings.Count(sb.String(), "\n"); n != 2+2+1 {
		t.Errorf("top-2 report has %d lines:\n%s", n, sb.String())
	}
}

func TestCertificationWrite(t *testing.T) {
	c := &Certification{
		Outputs: []Output{
			{Value: 1, Lo: 0.5, Hi: 1.5, Width: 1, Status: StatusProved},
			{Value: 9, Lo: 0, Hi: 1, Width: 1, Status: StatusViolated},
		},
		Proved: 1, Violated: 1, Dropped: 2, Truncated: true, MaxWidth: 1,
	}
	var sb strings.Builder
	c.Write(&sb)
	out := sb.String()
	for _, want := range []string{"FAIL", "violated", "2 dropped", "(truncated)"} {
		if !strings.Contains(out, want) {
			t.Errorf("certification output missing %q:\n%s", want, out)
		}
	}

	pass := &Certification{Outputs: make([]Output, 40)}
	for i := range pass.Outputs {
		pass.Outputs[i] = Output{Status: StatusProved}
		pass.Proved++
	}
	sb.Reset()
	pass.Write(&sb)
	out = sb.String()
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "and 8 more outputs") {
		t.Errorf("row cap not rendered:\n%s", out)
	}
}

func TestReportSiteMissing(t *testing.T) {
	rep := Report{Sites: []Site{{PC: 8}}}
	if _, ok := rep.Site(0x999); ok {
		t.Error("found a site that was never observed")
	}
	if got := rep.Flagged(); len(got) != 0 {
		t.Errorf("Flagged() = %v on an unflagged report", got)
	}
}
