package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"dsmrace/internal/core"
	"dsmrace/internal/workload"
)

func TestTailNeverBelowMedianAndLeavesTenBeyond(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := minTailSamples; n <= 400; n++ {
		xs := make([]float64, n)
		for i, p := range rng.Perm(n) {
			xs[i] = float64(p) + rng.Float64()/2
		}
		v, pct, err := tail(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailMin {
			t.Fatalf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailMin)
		}
		if v < median(xs) || pct < 50 || pct >= 100 {
			t.Fatalf("n=%d: tail %v at p%.2f, median %v", n, v, pct, median(xs))
		}
	}
	if _, _, err := tail(make([]float64, minTailSamples-1)); err == nil {
		t.Fatal("a tail of too few samples must fail rather than fall below the median")
	}
}

func TestMetricDeclarations(t *testing.T) {
	if err := checkDefs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]metricDef{
		{{"_lead", "s", ""}},
		{{"has space", "s", ""}},
		{{"ok", "", ""}},
		{{"ok", "way-too-long-unit-x", ""}},
		{{"twice", "s", ""}, {"twice", "ms", ""}},
	} {
		if checkDefs(bad) == nil {
			t.Errorf("checkDefs(%v) accepted a malformed declaration", bad)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step: same names, same units, same order.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
	}
}

// TestTimedDetectorParity runs a multi-kernel workload, whose two shards call
// the detector at the same time, with and without the timing wrapper: the
// simulated statistics must not change, and every call must be counted.
func TestTimedDetectorParity(t *testing.T) {
	def := dsmWorkload("groups-small", "", func() workload.Workload { return workload.MigratoryGroups(64, 8, 4, 4) },
		"write-update", 2, 64*4)
	plain, _, err := oneTrial(def, 3, core.NewExactVWDetector())
	if err != nil {
		t.Fatal(err)
	}
	td := &timedDetector{inner: core.NewExactVWDetector()}
	timed, _, err := oneTrial(def, 3, td)
	if err != nil {
		t.Fatal(err)
	}
	if plain.sim != timed.sim {
		t.Fatalf("timed run differs:\nplain %+v\ntimed %+v", plain.sim, timed.sim)
	}
	// Every op is one Get and one Put, each checked once at its home.
	if got, want := td.calls.Load(), int64(2*def.ops); got != want {
		t.Fatalf("%d OnAccess calls counted, want %d", got, want)
	}
	st := td.NewAreaState(4)
	if _, ok := st.(core.ClockAccessor); !ok {
		t.Error("wrapped state lost core.ClockAccessor")
	}
	if _, ok := st.(core.AbsorbElider); !ok {
		t.Error("wrapped state lost core.AbsorbElider")
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dsmrace/internal/core.(*vwAreaState).OnAccess": "core",
		"dsmrace/internal/vclock.Masked.MergeInto":      "vclock",
		"dsmrace/internal/sim.(*Kernel).drive.func1":    "sim",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/atomic.(*Uint32).Load":        "runtime",
		"main.(*timedState).OnAccess":                   "other",
		"time.Now":                                      "other",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldTraces folds a trace listing in the format of
// `go tool pprof -traces -sample_index=samples`.
func TestFoldTraces(t *testing.T) {
	const out = `File: perfbench
Type: samples
Duration: 1s, Total samples = 10
-----------+-------------------------------------------------------
         6   dsmrace/internal/vclock.Masked.MergeInto
             dsmrace/internal/core.(*vwAreaState).OnAccess (inline)
             main.main
-----------+-------------------------------------------------------
         3   runtime.futex
             runtime.futexsleep
             runtime.chanrecv1
             dsmrace/internal/sim.(*Kernel).Run
-----------+-------------------------------------------------------
         1   runtime.mallocgc
             dsmrace/internal/rdma.(*NIC).handle
-----------+-------------------------------------------------------
`
	s, err := foldTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.total != 10 || s.module["vclock"] != 6 || s.module["runtime"] != 4 || s.handoff != 3 {
		t.Fatalf("folded %+v", s)
	}
	if _, err := foldTraces("File: perfbench\n"); err == nil {
		t.Fatal("a listing without samples must fail")
	}
}
