package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/workloads"
)

// sharedHotSrc is the shared-cache workload: two trapping sites per iteration
// (the inexact divsd and mulsd) so the warm cache publishes two entries, plus
// enough iterations for a storm-governed tenant to trip its own patches
// mid-run.
const sharedHotSrc = `
	mov r0, $0
loop:
	movsd f0, =1.0
	divsd f0, =3.0
	movsd f1, f0
	inc r1
	mulsd f1, =1.7
	movsd f2, f1
	inc r0
	cmp r0, $60
	jl loop
	outf f0
	outf f1
	outf f2
	halt
`

func buildSharedHot(t testing.TB) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(sharedHotSrc)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSharedCacheWarmCheckouts pins the warm-pool contract at the session
// layer: with a shared SBCache on the config, only the first run over a
// program compiles; every later checkout adopts the published traces (zero
// SBCompiled), serves every entry, and stays bit-identical in guest-visible
// behavior to the classic per-session JIT run.
func TestSharedCacheWarmCheckouts(t *testing.T) {
	prog := buildSharedHot(t)
	base := baseConfig()
	base.JITThreshold = 2

	ref, err := New().Run(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Machine.SBCompiled != 2 {
		t.Fatalf("premise broken: reference compiled %d blocks, want 2", ref.Machine.SBCompiled)
	}

	shared := base
	shared.SBCache = fpvm.NewSBCache()
	var pool Pool
	first, err := pool.Run(prog, shared)
	if err != nil {
		t.Fatal(err)
	}
	if first.Machine.SBCompiled != 2 {
		t.Fatalf("first tenant compiled %d blocks, want 2", first.Machine.SBCompiled)
	}
	for i := 0; i < 4; i++ {
		res, err := pool.Run(prog, shared)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != ref.Output {
			t.Fatalf("warm checkout %d output diverged:\nref:  %q\nwarm: %q", i, ref.Output, res.Output)
		}
		if res.Instructions != ref.Instructions {
			t.Fatalf("warm checkout %d retired %d instructions, ref %d", i, res.Instructions, ref.Instructions)
		}
		if res.Machine.SBCompiled != 0 {
			t.Fatalf("warm checkout %d compiled %d blocks, want 0", i, res.Machine.SBCompiled)
		}
		if res.Machine.SBHits <= ref.Machine.SBHits {
			t.Fatalf("warm checkout %d SBHits %d not above cold run's %d (warm-up not skipped)",
				i, res.Machine.SBHits, ref.Machine.SBHits)
		}
		if res.Cycles >= ref.Cycles {
			t.Fatalf("warm checkout %d not cheaper: %d vs %d cycles", i, res.Cycles, ref.Cycles)
		}
	}
	if s := shared.SBCache.Stats(); s.Stores != 2 || s.Adopted == 0 {
		t.Fatalf("cache accounting off: %+v", s)
	}
}

// TestSharedCacheIsolationUnderRace is the cross-tenant staleness suite: many
// pooled tenants share one SBCache over the pointer-identical program while
// some of them mutate their own side tables mid-run (storm-governor patches)
// and others coalesce under a shorter trace cap, which keys their traces
// apart. No tenant's mutation may leak a stale trace into a concurrent
// tenant, nor a trace cross caps — every run's guest-visible output
// and retirement count must match the classic reference. Run under -race this
// is also the data-race gate on the shared cache itself.
func TestSharedCacheIsolationUnderRace(t *testing.T) {
	prog := buildSharedHot(t)
	base := baseConfig()
	base.JITThreshold = 2

	ref, err := New().Run(prog, base)
	if err != nil {
		t.Fatal(err)
	}

	cache := fpvm.NewSBCache()
	variants := []Config{base, base, base}
	variants[0].SBCache = cache // plain warm adopter
	variants[1].SBCache = cache // coalescing adopter: its own cap, its own key
	variants[1].MaxSequenceLen = 4
	variants[2].SBCache = cache // storm tenant: mutates its side table mid-run
	variants[2].StormThreshold = 4

	var pool Pool
	const workers, iters = 9, 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cfg := variants[w%len(variants)]
		kind := w % len(variants)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := pool.Run(prog, cfg)
				if err != nil {
					errc <- fmt.Errorf("variant %d: %v", kind, err)
					return
				}
				if res.Output != ref.Output {
					errc <- fmt.Errorf("variant %d: output diverged from classic run:\nref: %q\ngot: %q",
						kind, ref.Output, res.Output)
					return
				}
				if res.Instructions != ref.Instructions {
					errc <- fmt.Errorf("variant %d: retired %d instructions, ref %d",
						kind, res.Instructions, ref.Instructions)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if s := cache.Stats(); s.Programs != 2 || s.Entries == 0 {
		t.Fatalf("cache accounting off after race: %+v", s)
	}
}

// TestSharedCacheMPFRWarmEqualsCold is the warm-adoption output contract
// under a system whose boxed values print differently from native doubles.
// An adopted entry patch is live from the first visit, so it would emulate,
// and box, visits that a cold run still executes natively. Lorenz then
// printed "1.0000…0e+00" where the cold run printed "1". Three fresh
// sessions share one cache here, and each must print exactly what a cold
// session prints.
func TestSharedCacheMPFRWarmEqualsCold(t *testing.T) {
	w, ok := workloads.Get("Lorenz Attractor")
	if !ok {
		t.Fatal("Lorenz Attractor workload missing")
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: arith.NewMPFR(200), MaxSequenceLen: 16, JITThreshold: 8}
	cold, err := New().Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SBCache = fpvm.NewSBCache()
	for i := 1; i <= 3; i++ {
		res, err := New().Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != cold.Output {
			got, want := strings.Split(res.Output, "\n"), strings.Split(cold.Output, "\n")
			for l := range min(len(got), len(want)) {
				if got[l] != want[l] {
					t.Fatalf("run %d: line %d prints %q, cold run %q", i, l+1, got[l], want[l])
				}
			}
			t.Fatalf("run %d: %d output lines, cold run %d", i, len(got), len(want))
		}
		if res.Machine.SBCompiled != cold.Machine.SBCompiled {
			t.Fatalf("run %d compiled %d blocks, cold run %d", i, res.Machine.SBCompiled, cold.Machine.SBCompiled)
		}
	}
}
