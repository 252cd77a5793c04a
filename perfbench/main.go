// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed number of seconds in a single process, checks the
// output of every trial, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 201, "failed": 0, "metrics": {"ops_per_s": {"value": 1.2e5, "unit": "1/s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.sh; see
// README.md in this directory for the workloads and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"dsmrace/internal/core"
)

const (
	// maxProcs caps the OS threads running Go code: the parallel workloads
	// are sized for two.
	maxProcs = 2
	// setupRounds batches of back-to-back setups give the setup medians. A
	// batch lasts about setupBatch and allocates at most setupBatchBytes (or
	// one setup), so that it stays below every workload's trial memory peak.
	setupRounds     = 15
	setupBatch      = 5 * time.Millisecond
	setupBatchBytes = 4 << 20
	// minPhaseTrials is the least number of trials in each half of a traced
	// run.
	minPhaseTrials = 3
	// maxOvertime bounds how far past --seconds a phase may run to reach its
	// minimum trial count.
	maxOvertime = 60 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", ")+"; all runs every workload traced and compares them")
	seed := fs.Int64("seed", 1, "workload seed (the simulation's random source)")
	seconds := fs.Float64("seconds", 20, "seconds of timed trials")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	if err := checkDefs(endToEnd, perLayer); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))

	if *name == "all" {
		if *trace != 1 {
			fmt.Fprintln(stderr, "perfbench: --workload all needs --trace 1")
			return 2
		}
		return runAll(stdout, *seed, dur)
	}
	def, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}
	var r *report
	if *trace == 1 {
		r = traced(def, *seed, dur)
	} else {
		r = untraced(def, *seed, dur)
	}
	r.print(stdout)
	return printResult(stdout, r.result())
}

// report is one run's outcome: its metrics with their units, the trial
// counts, and free-form notes printed before the result line.
type report struct {
	def       workloadDef
	seed      int64
	trace     int
	attempted int
	failed    int
	firstErr  error
	notes     []string
	values    map[string]float64
	defs      []metricDef
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed trial.
func (r *report) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%d gomaxprocs=%d\n", r.def.name, r.seed, r.trace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  why: %s\n", r.def.why)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  checks: %d trials attempted, %d failed, failed_frac %.4f\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
	for _, d := range r.defs {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", d.name, r.values[d.name], d.unit, d.doc)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res
}

func printResult(w io.Writer, res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	return 0
}

// trials is a sequence of timed trials of one workload.
type trials struct {
	ms                  []float64 // host time per trial
	windowNs, barrierNs int64
}

func (t *trials) seconds() float64 {
	s := 0.0
	for _, m := range t.ms {
		s += m / 1e3
	}
	return s
}

// runTrials runs trials for at least dur and at least minN trials, each under
// a fresh detector from newDet. A trial fails when its run or output check
// fails, or when its simulated statistics differ from ref. A non-nil setups
// takes its rounds between the trials, spread evenly over dur.
func runTrials(r *report, seed int64, ref simStats, newDet func() core.Detector, dur time.Duration, minN int, setups *setupSampler) *trials {
	t := &trials{}
	start := time.Now()
	for el := time.Duration(0); (el < dur || len(t.ms) < minN) && el < dur+maxOvertime; el = time.Since(start) {
		if setups != nil && len(setups.total) < setupRounds && el >= dur*time.Duration(len(setups.total))/setupRounds {
			setups.round()
		}
		// Every trial starts from a collected heap, so no trial pays for the
		// garbage of the one before it.
		runtime.GC()
		out, d, err := oneTrial(r.def, seed, newDet())
		t.ms = append(t.ms, float64(d)/float64(time.Millisecond))
		r.attempted++
		if err == nil && out.sim != ref {
			err = fmt.Errorf("simulated statistics %+v differ from the first trial's %+v", out.sim, ref)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		t.windowNs += out.windowNs
		t.barrierNs += out.barrierNs
	}
	for setups != nil && len(setups.total) < setupRounds {
		setups.round()
	}
	return t
}

// oneTrial sets up and runs one trial, timing both.
func oneTrial(def workloadDef, seed int64, det core.Detector) (trialOut, time.Duration, error) {
	start := time.Now()
	runFn, _, err := def.prepare(seed, det)
	if err != nil {
		return trialOut{}, time.Since(start), fmt.Errorf("setup: %w", err)
	}
	out, err := runFn()
	return out, time.Since(start), err
}

// warmUp runs the untimed first trial, whose simulated statistics every later
// trial must reproduce.
func warmUp(r *report, seed int64) simStats {
	out, _, err := oneTrial(r.def, seed, core.NewExactVWDetector())
	r.attempted++
	if err != nil {
		r.fail(err)
	}
	return out.sim
}

// setupSampler times rounds of back-to-back setups of one workload. The
// clusters are built and dropped without running. Rounds are taken between
// trials so that, like the trial times, they sample the whole run: the host's
// speed drifts over seconds, and 15 rounds taken back to back at one moment
// spread by a third between runs.
type setupSampler struct {
	r                        *report
	seed                     int64
	batch                    int
	build, new, alloc, total []float64 // per-setup time of each round
}

func newSetupSampler(r *report, seed int64) *setupSampler {
	s := &setupSampler{r: r, seed: seed}
	// The batch is sized from a few setups: a single one's time swung the
	// batch of prodchain-mesi between 28 and 79 setups.
	const probes = 5
	var m0, m1 runtime.MemStats
	var times []float64
	runtime.ReadMemStats(&m0)
	for range probes {
		times = append(times, float64(s.setup().total()))
	}
	runtime.ReadMemStats(&m1)
	byTime := int(float64(setupBatch) / max(median(times), float64(time.Microsecond)))
	byBytes := int(setupBatchBytes / max((m1.TotalAlloc-m0.TotalAlloc)/probes, 1))
	s.batch = max(1, min(byTime, byBytes))
	return s
}

func (s *setupSampler) setup() setupTimes {
	_, st, err := s.r.def.prepare(s.seed, core.NewExactVWDetector())
	if err != nil {
		s.r.attempted++
		s.r.fail(fmt.Errorf("setup: %w", err))
	}
	return st
}

// round times one batch. It starts from a collected heap whose free memory
// has been returned to the OS, and the collector is paused within it, so
// every setup builds its cluster in fresh pages, as the first setup of a
// process does. A DSM setup allocates up to megabytes in large objects:
// where collections happened to land swung a round by a third, and how many
// of its pages the runtime's background scavenger had already returned (0 to
// 50 page faults per setup of groups-k2) split rounds of one process between
// 1.0 and 2.0 ms. The next trial's collection, outside its timing, pays for
// the garbage.
func (s *setupSampler) round() {
	debug.FreeOSMemory()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	var sum setupTimes
	start := time.Now()
	for j := 0; j < s.batch; j++ {
		st := s.setup()
		sum.build += st.build
		sum.new += st.new
		sum.alloc += st.alloc
	}
	n := float64(s.batch)
	s.total = append(s.total, float64(time.Since(start))/n)
	s.build = append(s.build, float64(sum.build)/n)
	s.new = append(s.new, float64(sum.new)/n)
	s.alloc = append(s.alloc, float64(sum.alloc)/n)
}

// medians returns the median per-setup time of each step and of the whole.
func (s *setupSampler) medians() (steps setupTimes, total time.Duration) {
	s.r.note("setup: %d rounds of %d setups", len(s.total), s.batch)
	return setupTimes{time.Duration(median(s.build)), time.Duration(median(s.new)), time.Duration(median(s.alloc))},
		time.Duration(median(s.total))
}

// untraced is the --trace 0 run: the end-to-end metrics.
func untraced(def workloadDef, seed int64, dur time.Duration) *report {
	setProcs(def)
	r := &report{def: def, seed: seed, defs: endToEnd, values: map[string]float64{}}
	ref := warmUp(r, seed)
	setups := newSetupSampler(r, seed)
	t := runTrials(r, seed, ref, func() core.Detector { return core.NewExactVWDetector() }, dur, minTailSamples, setups)
	r.values["max_rss_mb"] = maxRSSMB()
	_, setup := setups.medians()

	tailMs, pct, err := tail(t.ms)
	if err != nil {
		r.fail(err)
	}
	r.note("trials: %d timed after 1 warm-up; tail is p%.1f of %d samples, %d beyond it; slowest %.3f ms",
		len(t.ms), pct, len(t.ms), tailMin, sorted(t.ms)[len(t.ms)-1])
	r.values["ops_per_s"] = float64(def.ops*len(t.ms)) / t.seconds()
	r.values["trial_ms_p50"] = median(t.ms)
	r.values["trial_ms_tail"] = tailMs
	r.values["setup_s"] = setup.Seconds()
	return r
}

// traced is the --trace 1 run. Its first half repeats the untraced trials and
// yields the counts, the runtime's allocation figures and the untraced
// trial time; its second half runs under the timed detector and the CPU
// profiler and yields the detector timings and the per-package self-time
// shares. Both halves must reproduce the warm-up trial's simulated
// statistics.
func traced(def workloadDef, seed int64, dur time.Duration) *report {
	setProcs(def)
	r := &report{def: def, seed: seed, trace: 1, defs: perLayer, values: map[string]float64{}}
	ref := warmUp(r, seed)
	half := dur / 2

	var ms0, ms1 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&ms0)
	plain := runTrials(r, seed, ref, func() core.Detector { return core.NewExactVWDetector() }, half, minPhaseTrials, nil)
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()

	var timed []*timedDetector
	prof, err := startCPUProfile()
	if err != nil {
		r.fail(fmt.Errorf("cpu profile: %w", err))
	}
	tr := runTrials(r, seed, ref, func() core.Detector {
		d := &timedDetector{inner: core.NewExactVWDetector()}
		timed = append(timed, d)
		return d
	}, half, minPhaseTrials, nil)
	pprof.StopCPUProfile()
	setups := newSetupSampler(r, seed)
	for range setupRounds {
		setups.round()
	}
	steps, _ := setups.medians()
	var sh shares
	if prof != nil {
		if sh, err = foldCPUProfile(prof); err != nil {
			r.fail(fmt.Errorf("cpu profile: %w", err))
		}
	}
	var calls, callNs int64
	for _, d := range timed {
		calls += d.calls.Load()
		callNs += d.ns.Load()
	}

	n := float64(len(plain.ms))
	ops := float64(def.ops)
	perOp := func(x uint64) float64 { return float64(x) / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	s := ref
	v := r.values
	v["detector.onaccess_per_op"] = ratio(float64(calls)/float64(len(tr.ms)), ops)
	v["detector.onaccess_ns"] = ratio(float64(callNs), float64(calls))
	v["detector.share"] = ratio(float64(callNs)/1e9, tr.seconds())
	v["detector.storage_bytes"] = float64(s.storageBytes)
	v["detector.races"] = float64(s.races)
	v["coherence.hits_per_op"] = perOp(s.coh.Hits)
	v["coherence.fetches_per_op"] = perOp(s.coh.Fetches)
	v["coherence.invalidations_per_op"] = perOp(s.coh.Invalidations)
	v["coherence.recalls_per_op"] = perOp(s.coh.Recalls)
	v["coherence.hit_ratio"] = ratio(float64(s.coh.Hits), float64(s.coh.Hits+s.coh.Fetches))
	v["network.msgs_per_op"] = perOp(s.msgs)
	v["network.wire_bytes_per_op"] = perOp(s.wireBytes)
	v["network.overhead_bytes_frac"] = ratio(float64(s.overheadBytes), float64(s.wireBytes))
	v["sim.events_per_op"] = perOp(s.events)
	v["sim.host_ns_per_event"] = ratio(plain.seconds()*1e9, n*float64(s.events))
	v["sim.handoff_share"] = sh.handoffShare()
	v["sim.mk.kernels"] = float64(s.kernels)
	v["sim.mk.windows_per_op"] = perOp(s.windows)
	v["sim.mk.extensions_per_op"] = perOp(s.extensions)
	v["sim.mk.pipelined_replays_per_op"] = perOp(s.pipelined)
	v["sim.mk.replay_records_per_op"] = perOp(s.replay)
	v["sim.mk.barrier_share"] = ratio(float64(plain.barrierNs), float64(plain.windowNs+plain.barrierNs))
	v["mcheck.runs"] = float64(s.mcRuns)
	v["mcheck.pruned"] = float64(s.mcPruned)
	v["mcheck.memo_hits"] = float64(s.mcMemoHits)
	v["mcheck.unique_states"] = float64(s.mcUnique)
	v["mcheck.schedules_per_s"] = ratio(n*float64(s.mcRuns), plain.seconds())
	for _, m := range []string{"vclock", "core", "coherence", "network", "rdma", "sim", "mcheck", "dsm", "memory"} {
		v[m+".self_share"] = sh.share(m)
	}
	v["workload.build_ms"] = float64(steps.build) / 1e6
	v["dsm.new_ms"] = float64(steps.new) / 1e6
	v["dsm.alloc_ms"] = float64(steps.alloc) / 1e6
	v["runtime.alloc_bytes_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), n*ops)
	v["runtime.allocs_per_op"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), n*ops)
	v["runtime.gc_cpu_share"] = ratio(cpu1.gc-cpu0.gc, cpu1.busy()-cpu0.busy())
	v["virt_ns_per_op"] = ratio(float64(s.virtNs), ops)
	v["trace.overhead_frac"] = median(tr.ms)/median(plain.ms) - 1

	r.note("trials: %d untraced then %d traced after 1 warm-up; untraced p50 %.3f ms, traced p50 %.3f ms",
		len(plain.ms), len(tr.ms), median(plain.ms), median(tr.ms))
	r.note("parity: every trial, traced or not, reproduced the warm-up's simulated statistics: %v", r.failed == 0)
	r.note("profile: %d samples", sh.total)
	for _, sp := range localSplits(def.name, v) {
		r.note("split %s", sp)
	}
	return r
}

func setProcs(def workloadDef) { runtime.GOMAXPROCS(min(def.procs, runtime.NumCPU())) }

// cpuTimes are the runtime's cumulative CPU-time estimates.
type cpuTimes struct{ gc, total, idle float64 }

func (c cpuTimes) busy() float64 { return c.total - c.idle }

func readCPU() cpuTimes {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return cpuTimes{f(0), f(1), f(2)}
}

// maxRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
