package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateDoc builds a minimal two-row document for gate tests.
func gateDoc() *BenchDoc {
	return &BenchDoc{
		Schema:  1,
		Options: BenchOptions{Prec: 200, Quick: true, SeqLen: 16},
		Rows: []BenchRow{
			{Workload: "FBench", System: "vanilla", SeqLen: 16,
				VirtCycles: 1000, FPTraps: 40, NsPerStep: 400},
			{Workload: "Three-Body", System: "mpfr", SeqLen: 16,
				VirtCycles: 2000, FPTraps: 80, NsPerStep: 10},
		},
		SessionLoad: &SessionLoad{Workload: "FBench/", System: "vanilla",
			Sessions: 500, Workers: 16, PerSec: 400},
	}
}

func TestGateBenchIdenticalPasses(t *testing.T) {
	if bad := GateBench(gateDoc(), gateDoc()); len(bad) != 0 {
		t.Fatalf("identical documents failed the gate: %v", bad)
	}
}

func TestGateBenchImprovementPasses(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[0].VirtCycles = 500
	cur.Rows[0].FPTraps = 10
	cur.Rows[0].NsPerStep = 100
	cur.SessionLoad.Sessions = 1000
	if bad := GateBench(base, cur); len(bad) != 0 {
		t.Fatalf("improvement failed the one-sided gate: %v", bad)
	}
}

func TestGateBenchCycleRegression(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[0].VirtCycles = 1100 // +10% > 1% slack
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "virt cycles") {
		t.Fatalf("cycle regression not caught: %v", bad)
	}
}

func TestGateBenchTrapRegression(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[1].FPTraps = 100
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "fp traps") {
		t.Fatalf("trap regression not caught: %v", bad)
	}
}

func TestGateBenchWallRegressionAndFloor(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	// Row 0 sits above the 50ns floor: a >4x slowdown must trip the gate.
	cur.Rows[0].NsPerStep = 2000
	// Row 1 sits below the floor: even a huge relative jump is noise.
	cur.Rows[1].NsPerStep = 45
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "ns/step") {
		t.Fatalf("wall-clock gate misfired: %v", bad)
	}
	if !strings.Contains(bad[0], "FBench") {
		t.Fatalf("below-floor row tripped the wall gate: %v", bad)
	}
}

func TestGateBenchMissingRow(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows = cur.Rows[:1]
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("dropped row not caught: %v", bad)
	}
}

func TestGateBenchOptionsMismatch(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Options.SeqLen = 8
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "not comparable") {
		t.Fatalf("options mismatch not caught: %v", bad)
	}
}

func TestGateBenchSessionLoad(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.SessionLoad = nil
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing session-load record not caught: %v", bad)
	}

	cur = gateDoc()
	cur.SessionLoad.Errors = 3
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "failed") {
		t.Fatalf("session-load errors not caught: %v", bad)
	}

	cur = gateDoc()
	cur.SessionLoad.Sessions = 100
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "shrank") {
		t.Fatalf("session-load shrinkage not caught: %v", bad)
	}

	// A baseline without a session-load record imposes no session requirement.
	base.SessionLoad = nil
	cur = gateDoc()
	cur.SessionLoad = nil
	if bad := GateBench(base, cur); len(bad) != 0 {
		t.Fatalf("no-session baseline should not gate sessions: %v", bad)
	}
}

// TestReadBenchDocCheckedIn proves the checked-in baseline parses and gates
// cleanly against itself — the invariant `make bench-gate` depends on.
func TestReadBenchDocCheckedIn(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_6.json")
	doc, err := ReadBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != 1 || len(doc.Rows) == 0 {
		t.Fatalf("baseline malformed: schema %d, %d rows", doc.Schema, len(doc.Rows))
	}
	if doc.SessionLoad == nil || doc.SessionLoad.Sessions < 500 {
		t.Fatalf("baseline missing the >=500-session load record: %+v", doc.SessionLoad)
	}
	if bad := GateBench(doc, doc); len(bad) != 0 {
		t.Fatalf("baseline does not gate cleanly against itself: %v", bad)
	}
}

func TestReadBenchDocRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":1,"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchDoc(empty); err == nil {
		t.Error("empty document accepted")
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`[{"workload":"x"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchDoc(legacy); err == nil {
		t.Error("legacy row-array document accepted")
	}
	if _, err := ReadBenchDoc(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGateBenchSessionLoadShed(t *testing.T) {
	shedDoc := func() *BenchDoc {
		d := gateDoc()
		d.SessionLoadShed = &SessionLoad{Workload: "FBench/", System: "vanilla",
			Sessions: 500, Workers: 16, PerSec: 380}
		return d
	}
	if bad := GateBench(shedDoc(), shedDoc()); len(bad) != 0 {
		t.Fatalf("identical shed records failed the gate: %v", bad)
	}

	base, cur := shedDoc(), shedDoc()
	cur.SessionLoadShed.Errors = 2
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "shed session load") {
		t.Fatalf("shed errors not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed.Quarantined = 1
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "misfiring") {
		t.Fatalf("clean-load quarantine not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed.PerSec = 100 // < 0.5 * the unarmed record's 400
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "cost too much") {
		t.Fatalf("checkpoint overhead not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed = nil
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing shed record not caught: %v", bad)
	}

	// The shed bars are within-document: a current document carrying the
	// record is held to them even when the baseline predates it.
	base.SessionLoadShed = nil
	cur = shedDoc()
	cur.SessionLoadShed.Quarantined = 3
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "misfiring") {
		t.Fatalf("pre-shed baseline should not disable the within-document bars: %v", bad)
	}
}

// retiredBaseline is a BENCH_9-shaped baseline: recorded with the retired
// superblock-stitching knob, so its options carry stitch_depth and each
// workload has one extra row at stitch_depth > 0 with fewer cycles than its
// jit row.
const retiredBaseline = `{
  "schema": 1,
  "options": {"prec": 200, "quick": true, "max_sequence_len": 16, "storm_threshold": 0, "jit_threshold": 8, "stitch_depth": 4},
  "rows": [
    {"workload": "NAS LU", "specifics": "Class S", "system": "mpfr200", "max_sequence_len": 16, "jit_threshold": 0, "virt_cycles": 5000, "fp_traps": 90},
    {"workload": "NAS LU", "specifics": "Class S", "system": "mpfr200", "max_sequence_len": 16, "jit_threshold": 8, "virt_cycles": 3000, "fp_traps": 30, "sb_hits": 60},
    {"workload": "NAS LU", "specifics": "Class S", "system": "mpfr200", "max_sequence_len": 16, "jit_threshold": 8, "stitch_depth": 4, "virt_cycles": 2900, "fp_traps": 30, "sb_hits": 60, "sb_stitched": 40}
  ]
}`

// stitchFreeDoc is what the current bench produces for retiredBaseline's
// configuration: the same options without the knob, and no stitched rows.
func stitchFreeDoc() *BenchDoc {
	return &BenchDoc{
		Schema:  1,
		Options: BenchOptions{Prec: 200, Quick: true, SeqLen: 16, JIT: 8},
		Rows: []BenchRow{
			{Workload: "NAS LU", Specifics: "Class S", System: "mpfr200", SeqLen: 16,
				VirtCycles: 5000, FPTraps: 90},
			{Workload: "NAS LU", Specifics: "Class S", System: "mpfr200", SeqLen: 16, JIT: 8,
				VirtCycles: 3000, FPTraps: 30, SBHits: 60},
		},
	}
}

func TestGateRetiredStitchRowsIgnored(t *testing.T) {
	base, err := parseBenchDoc([]byte(retiredBaseline))
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) != 2 {
		t.Fatalf("baseline kept %d rows, want the 2 without stitch_depth", len(base.Rows))
	}
	if bad := GateBench(base, stitchFreeDoc()); len(bad) != 0 {
		t.Fatalf("stitch-free document failed against the retired baseline: %v", bad)
	}
}

func TestGateRetiredBaselineStillCatchesRegressions(t *testing.T) {
	base, err := parseBenchDoc([]byte(retiredBaseline))
	if err != nil {
		t.Fatal(err)
	}
	cur := stitchFreeDoc()
	cur.Rows[1].VirtCycles = 3100 // the jit row, which the baseline shares
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "virt cycles 3000 -> 3100") {
		t.Fatalf("cycle regression on an intersecting row not caught: %v", bad)
	}
	cur = stitchFreeDoc()
	cur.Rows = cur.Rows[1:] // drop the seqemu row
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing non-stitch row not caught: %v", bad)
	}
}

// TestReadBenchDocBENCH9 checks the baseline `make bench-gate` compares
// against: its stitched rows are gone, no two remaining rows share a key,
// and its options equal those the canonical bench options record.
func TestReadBenchDocBENCH9(t *testing.T) {
	doc, err := ReadBenchDoc(filepath.Join("..", "..", "BENCH_9.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[benchKey]bool{}
	for _, r := range doc.Rows {
		k := benchKey{r.Workload, r.Specifics, r.System, r.SeqLen, r.JIT}
		if seen[k] {
			t.Fatalf("two baseline rows share key %v", k)
		}
		seen[k] = true
	}
	if len(doc.Rows) != 30 {
		t.Fatalf("BENCH_9.json kept %d rows, want 30 (10 workloads x 3 rungs)", len(doc.Rows))
	}
	if want := (BenchOptions{Prec: 200, Quick: true, SeqLen: 16, JIT: 8}); doc.Options != want {
		t.Fatalf("options %+v, want %+v", doc.Options, want)
	}
}
