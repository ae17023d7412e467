package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/format"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The host probe measures how fast the host runs ordinary compiled code,
// using none of the repository's code. On a shared host the speed of real
// programs drifts by tens of percent from one minute to the next (a tight
// arithmetic loop barely moves; large, branchy, allocating code does), and
// the drift slows the program under test and the probe alike. The
// end-to-end times are scaled by the probe's time over the same window, so
// the drift cancels while any change to the program still moves them in
// its own direction: the probe shares no code with it.
//
// The probe's work is Go standard-library code of the same character as an
// interpreter: parse a fixed Go source, print it back, match a regular
// expression over it, sort its words and round-trip them through JSON. It
// runs in a child process (this binary with -host-probe) so that its
// allocations never meet the heap of the program under test, whose size a
// change could alter.

// hostProbeRefMs is the probe's time per call on the reference host: the
// 2-core x86-64 container the benchmark was built on, at its usual speed.
// A normalized time is a raw time × hostProbeRefMs ÷ the probe's time per
// call measured over the same window: what the same work would take on the
// reference host.
const hostProbeRefMs = 11.0

// probeSource is the fixed Go source the probe parses: 80 generated
// functions of a few control-flow shapes.
var probeSource = func() []byte {
	var b strings.Builder
	b.WriteString("// Package probe is input for the host probe.\npackage probe\n\nimport \"fmt\"\n\n")
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, `// F%[1]d is generated function number %[1]d.
func F%[1]d(xs []float64, m map[string]int) (float64, error) {
	var acc float64
	for i, x := range xs {
		switch {
		case x > %[1]d.5:
			acc += x * float64(i)
		case x < -%[1]d.25:
			acc -= x / 2
		default:
			m[fmt.Sprint("k", i%%%[2]d)]++
		}
	}
	if acc != acc {
		return 0, fmt.Errorf("F%[1]d: NaN after %%d values", len(xs))
	}
	p := struct{ A, B int }{A: %[1]d, B: len(m)}
	return acc + float64(p.A*p.B), nil
}

`, i, i%7+2)
	}
	return []byte(b.String())
}()

var probeFuncRE = regexp.MustCompile(`func ([A-Z][0-9]+)\(([a-z]+) \[\]float64`)

// probeCall does one unit of probe work.
func probeCall() error {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "probe.go", probeSource, parser.ParseComments)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, f); err != nil {
		return err
	}
	text := buf.String()
	matches := probeFuncRE.FindAllStringSubmatch(text, -1)
	words := strings.Fields(text)
	sort.Strings(words)
	js, err := json.Marshal(map[string]any{"funcs": matches, "words": words})
	if err != nil {
		return err
	}
	var back map[string][]any
	if err := json.Unmarshal(js, &back); err != nil {
		return err
	}
	if len(back["funcs"]) != 80 {
		return fmt.Errorf("host probe: matched %d functions, want 80", len(back["funcs"]))
	}
	return nil
}

// serveHostProbe is the child side: for each line n read from in, it runs n
// probe calls and writes their mean time per call in ms.
func serveHostProbe(in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		n, err := strconv.Atoi(sc.Text())
		if err != nil || n < 1 {
			return fmt.Errorf("host probe: bad request %q", sc.Text())
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := probeCall(); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(out, "%g\n", ms(time.Since(t0))/float64(n)); err != nil {
			return err
		}
	}
	return sc.Err()
}

// hostProbe is the parent's handle on a running probe child.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startHostProbe starts the probe child: this binary with -host-probe.
func startHostProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-host-probe")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start host probe: %w", err)
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// read runs calls probe calls in the child and returns the time per call
// in ms.
func (p *hostProbe) read(calls int) (float64, error) {
	if _, err := fmt.Fprintln(p.in, calls); err != nil {
		return 0, err
	}
	if !p.out.Scan() {
		return 0, errors.New("host probe exited early")
	}
	return strconv.ParseFloat(p.out.Text(), 64)
}

// stop closes the child's input, on which it exits, and waits for it.
func (p *hostProbe) stop() {
	p.in.Close()
	_ = p.cmd.Wait()
}

// hostScale is the factor that takes a time measured while the probe read
// readings (ms per call) to the reference host: hostProbeRefMs ÷ their
// median.
func hostScale(readings []float64) float64 { return hostProbeRefMs / median(readings) }
