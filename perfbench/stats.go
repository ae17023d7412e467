package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailMinBeyond is how many samples must lie above a reported tail
// percentile for the percentile to mean anything.
const tailMinBeyond = 10

// tail reports the highest percentile of xs that has at least tailMinBeyond
// samples strictly beyond it: the (n-tailMinBeyond)-th smallest sample, and
// the percentile level it sits at. ok is false when there are too few
// samples for any such percentile.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailMinBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	k := n - tailMinBeyond - 1 // 0-based index with tailMinBeyond samples above it
	return s[k], 100 * float64(k+1) / float64(n), true
}

// geomean returns the geometric mean of positive xs; 0 for an empty slice.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// procCPU holds a process's accumulated CPU time from /proc/<pid>/stat.
type procCPU struct {
	UserTicks, SysTicks uint64
}

// clockTicksPerSec is USER_HZ, the unit of the utime/stime fields of
// /proc/<pid>/stat. Linux fixes it at 100 on every architecture it exports
// to user space.
const clockTicksPerSec = 100

// Seconds is the total CPU time in seconds.
func (c procCPU) Seconds() float64 {
	return float64(c.UserTicks+c.SysTicks) / clockTicksPerSec
}

// parseProcStat extracts utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name in field 2 is parenthesized and may
// itself contain spaces or parentheses, so fields are counted from the last
// closing parenthesis.
func parseProcStat(text string) (procCPU, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return procCPU{}, fmt.Errorf("proc stat: no command field in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("proc stat stime: %w", err)
	}
	return procCPU{UserTicks: ut, SysTicks: st}, nil
}

// parseVmHWM returns the peak resident set size in KiB from the text of
// /proc/<pid>/status.
func parseVmHWM(text string) (uint64, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// readProcCPU reads the CPU counters of process pid ("self" for this one).
func readProcCPU(pid string) (procCPU, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(string(b))
}

// readPeakRSSMiB reads the peak resident set size of process pid in MiB.
func readPeakRSSMiB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(string(b))
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// serveStats is the part of fpvm-serve's GET /stats body the benchmark reads.
type serveStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Shed     uint64 `json:"shed"`
	Pool     *struct {
		Gets uint64 `json:"gets"`
		News uint64 `json:"news"`
	} `json:"pool"`
	SharedSB *struct {
		Lookups uint64 `json:"lookups"`
		Hits    uint64 `json:"hits"`
	} `json:"shared_sb"`
}

// parseServeStats decodes a /stats body. A body without the pool block is
// rejected: the session-pool figures need it.
func parseServeStats(body []byte) (serveStats, error) {
	var st serveStats
	if err := json.Unmarshal(body, &st); err != nil {
		return serveStats{}, fmt.Errorf("stats: %w", err)
	}
	if st.Pool == nil {
		return serveStats{}, fmt.Errorf("stats: no pool block")
	}
	return st, nil
}

// statsDelta is the change in the /stats counters over a measured window.
type statsDelta struct {
	errors, shed      uint64
	gets, news        uint64
	sbLookups, sbHits uint64
}

// since returns the counters accumulated between prev and s.
func (s serveStats) since(prev serveStats) statsDelta {
	d := statsDelta{
		errors: s.Errors - prev.Errors,
		shed:   s.Shed - prev.Shed,
		gets:   s.Pool.Gets - prev.Pool.Gets,
		news:   s.Pool.News - prev.Pool.News,
	}
	if s.SharedSB != nil && prev.SharedSB != nil {
		d.sbLookups = s.SharedSB.Lookups - prev.SharedSB.Lookups
		d.sbHits = s.SharedSB.Hits - prev.SharedSB.Hits
	}
	return d
}

// poolHitRatio is 1 - news/gets: the share of session checkouts served by a
// pooled session.
func (d statsDelta) poolHitRatio() float64 {
	if d.gets == 0 {
		return 0
	}
	return 1 - float64(d.news)/float64(d.gets)
}

// sharedSBHitRate is the share of JIT-armed attaches that found published
// superblocks to adopt.
func (d statsDelta) sharedSBHitRate() float64 {
	if d.sbLookups == 0 {
		return 0
	}
	return float64(d.sbHits) / float64(d.sbLookups)
}
