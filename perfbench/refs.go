package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/session"
	"fpvm/internal/workloads"
)

// digestFile holds the SHA-256 of every batch program's guest output under
// MPFR-200, relative to this package's directory. MPFR output has no native
// counterpart to compare against, so it is checked against these recorded
// digests instead.
const digestFile = "testdata/mpfr200.json"

// nativeRef is a program's reference: its output and modeled cycles when run
// on the bare machine, with no FPVM attached.
type nativeRef struct {
	out    string
	cycles uint64
	insts  uint64
}

// nativeRunner runs programs on one reused machine, the way a pooled session
// reuses its own.
type nativeRunner struct {
	m   *machine.Machine
	out bytes.Buffer
}

// run executes prog natively to halt.
func (n *nativeRunner) run(prog *isa.Program) (nativeRef, error) {
	n.out.Reset()
	if n.m == nil {
		m, err := machine.New(prog, &n.out)
		if err != nil {
			return nativeRef{}, err
		}
		n.m = m
	} else if err := n.m.Reset(prog, &n.out, 0); err != nil {
		return nativeRef{}, err
	}
	if err := n.m.Run(session.DefaultMaxInst); err != nil {
		return nativeRef{}, fmt.Errorf("native run: %w", err)
	}
	return nativeRef{out: n.out.String(), cycles: n.m.Cycles, insts: n.m.Stats.Instructions}, nil
}

// digest is the hex SHA-256 of a guest output.
func digest(out string) string {
	h := sha256.Sum256([]byte(out))
	return hex.EncodeToString(h[:])
}

// imageDigest is the hex SHA-256 of a program image: code, data and the
// addresses they load at.
func imageDigest(p *isa.Program) string {
	h := sha256.New()
	h.Write(p.Code)
	h.Write(p.Data)
	fmt.Fprintf(h, "%d/%d", p.DataBase, p.Entry)
	return hex.EncodeToString(h.Sum(nil))
}

// recorded is one program's entry in digestFile: the digest of the program
// image that was run and of its MPFR-200 output.
type recorded struct {
	Image  string `json:"image"`
	Output string `json:"output"`
}

// digestPath locates digestFile next to this package's sources: the
// benchmark runs from the repository root, so the package directory is the
// one holding go.mod under "perfbench".
func digestPath() string {
	if _, err := os.Stat(digestFile); err == nil {
		return digestFile
	}
	return filepath.Join("perfbench", digestFile)
}

// loadDigests reads the recorded MPFR-200 output digests.
func loadDigests() (map[string]recorded, error) {
	b, err := os.ReadFile(digestPath())
	if err != nil {
		return nil, err
	}
	var d map[string]recorded
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", digestFile, err)
	}
	return d, nil
}

// programKey is a workload's name in oracle spelling, the same spelling
// fpvm-serve accepts in a request's "workload" field.
func programKey(w workloads.Workload) string {
	if w.Specifics == "" {
		return "workload:" + w.Name
	}
	return "workload:" + w.Name + "/" + w.Specifics
}

// recordDigests runs every batch program under the mpfr-jit configuration
// and rewrites digestFile. The recorded outputs then stand as the reference
// later runs are checked against.
func recordDigests() error {
	d := make(map[string]recorded)
	s := session.New()
	for _, w := range workloads.All() {
		prog, err := w.Build()
		if err != nil {
			return err
		}
		res, err := s.Run(prog, mpfrJIT.config())
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if bad := truncation(res); bad != "" {
			return fmt.Errorf("%s: %s", w.Name, bad)
		}
		d[programKey(w)] = recorded{Image: imageDigest(prog), Output: digest(res.Output)}
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath(), append(b, '\n'), 0o644)
}

// nearNativeTol is the relative tolerance within which each number an
// MPFR-200 run prints must agree with the native double-precision run of a
// program whose MPFR output has no recorded digest. The programs it applies
// to (NAS CG) converge, so the two agree to about 1e-13.
const nearNativeTol = 1e-9

// agreesWithin returns "" when got and want hold the same whitespace-
// separated fields, numbers within relative tolerance tol and all else
// equal; otherwise it names the first field that differs.
func agreesWithin(got, want string, tol float64) string {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d output fields, native has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] == w[i] {
			continue
		}
		a, errA := strconv.ParseFloat(g[i], 64)
		b, errB := strconv.ParseFloat(w[i], 64)
		if errA != nil || errB != nil {
			return fmt.Sprintf("field %d is %q, native %q", i, g[i], w[i])
		}
		if !(math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))) { // NaN fails too
			return fmt.Sprintf("field %d is %s, native %s: beyond relative tolerance %g", i, g[i], w[i], tol)
		}
	}
	return ""
}

// truncation names why a run did not complete cleanly, "" when it did.
func truncation(res session.Result) string {
	switch {
	case res.Fault != "":
		return "fault: " + res.Fault
	case res.BudgetExhausted:
		return "instruction budget exhausted"
	case res.DeadlineExceeded:
		return "deadline exceeded"
	}
	return ""
}

// memSnap is a point-in-time copy of the Go runtime's allocation counters.
type memSnap struct {
	alloc, mallocs uint64
	numGC          uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC}
}

func gcCPUFraction() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.GCCPUFraction
}
