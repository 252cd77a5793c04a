package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one reported metric: its name and unit as printed, and
// a one-line description for the human-readable report.
type metricDef struct {
	name, unit, doc string
}

// endToEnd are the metrics of an untraced run (--trace 0), in print order.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "program operations (mcheck: verdicts) per host second, over the timed trials"},
	{"trial_ms_p50", "ms", "median host time of one trial (setup, run to the last event)"},
	{"trial_ms_tail", "ms", "highest percentile of trial time with at least 10 trials beyond it"},
	{"setup_s", "s", "median host time of one setup: workload build, dsm.New, Alloc (mcheck: litmus and protocol resolution, one replay-sized cluster)"},
	{"max_rss_mb", "MB", "peak resident memory of the benchmark process"},
}

// perLayer are the metrics of a traced run (--trace 1), in print order. The
// counts are taken from one trial and are exact; shares and times are host
// measurements. A layer a workload does not exercise, or whose counters it
// cannot see from outside (the DSM counters of mcheck's internal replays),
// reads 0.
var perLayer = []metricDef{
	{"detector.onaccess_per_op", "count", "AreaState.OnAccess calls per op"},
	{"detector.onaccess_ns", "ns", "mean host time of one OnAccess, timer included"},
	{"detector.share", "frac", "OnAccess host time over traced trial time"},
	{"detector.storage_bytes", "bytes", "detection metadata held at the end of a trial"},
	{"detector.races", "count", "races signalled in a trial"},
	{"vclock.self_share", "frac", "CPU profile self time in internal/vclock"},
	{"core.self_share", "frac", "CPU profile self time in internal/core"},
	{"coherence.hits_per_op", "count", "remote reads served from a local copy, per op"},
	{"coherence.fetches_per_op", "count", "whole-area fetches (read misses) per op"},
	{"coherence.invalidations_per_op", "count", "invalidation messages per op"},
	{"coherence.recalls_per_op", "count", "MESI exclusive-owner recalls per op"},
	{"coherence.hit_ratio", "frac", "hits over hits plus fetches"},
	{"coherence.self_share", "frac", "CPU profile self time in internal/coherence"},
	{"network.msgs_per_op", "count", "messages sent per op"},
	{"network.wire_bytes_per_op", "bytes", "wire bytes per op"},
	{"network.overhead_bytes_frac", "frac", "wire bytes due to detection and locking, over all wire bytes"},
	{"network.self_share", "frac", "CPU profile self time in internal/network"},
	{"rdma.self_share", "frac", "CPU profile self time in internal/rdma"},
	{"sim.events_per_op", "count", "simulation events per op"},
	{"sim.host_ns_per_event", "ns", "untraced trial time over events"},
	{"sim.self_share", "frac", "CPU profile self time in internal/sim"},
	{"sim.handoff_share", "frac", "CPU profile time in Go scheduler and channel code (baton hand-offs)"},
	{"sim.mk.kernels", "count", "kernel shards the run executed on"},
	{"sim.mk.windows_per_op", "count", "multi-kernel windows per op"},
	{"sim.mk.extensions_per_op", "count", "adaptive window extensions per op"},
	{"sim.mk.pipelined_replays_per_op", "count", "barrier replays overlapped with the next window, per op"},
	{"sim.mk.replay_records_per_op", "count", "execution records merged by barrier replays, per op"},
	{"sim.mk.barrier_share", "frac", "multi-kernel wall time in serial barrier phases"},
	{"mcheck.runs", "count", "schedules executed per verdict"},
	{"mcheck.pruned", "count", "alternatives cut by partial-order reduction per verdict"},
	{"mcheck.memo_hits", "count", "candidates absorbed by the state-fingerprint memo per verdict"},
	{"mcheck.unique_states", "count", "distinct terminal states per verdict"},
	{"mcheck.schedules_per_s", "1/s", "schedules executed per host second"},
	{"mcheck.self_share", "frac", "CPU profile self time in internal/mcheck"},
	{"dsm.self_share", "frac", "CPU profile self time in internal/dsm"},
	{"memory.self_share", "frac", "CPU profile self time in internal/memory"},
	{"workload.build_ms", "ms", "median time to build the workload and its programs (mcheck: resolve litmus and protocol)"},
	{"dsm.new_ms", "ms", "median time of dsm.New"},
	{"dsm.alloc_ms", "ms", "median time of the workload's Alloc calls"},
	{"runtime.alloc_bytes_per_op", "bytes", "heap bytes allocated per op"},
	{"runtime.allocs_per_op", "count", "heap objects allocated per op"},
	{"runtime.gc_cpu_share", "frac", "GC CPU time over busy CPU time"},
	{"virt_ns_per_op", "ns", "simulated time per op"},
	{"trace.overhead_frac", "frac", "traced trial_ms_p50 over untraced, minus 1"},
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs reports the first malformed or repeated metric declaration.
func checkDefs(defs ...[]metricDef) error {
	seen := map[string]bool{}
	for _, list := range defs {
		for _, d := range list {
			switch {
			case !metricName.MatchString(d.name):
				return fmt.Errorf("metric name %q is malformed", d.name)
			case !metricUnit.MatchString(d.unit):
				return fmt.Errorf("metric %s: unit %q is malformed", d.name, d.unit)
			case seen[d.name]:
				return fmt.Errorf("metric %s is declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
	return nil
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailMin is the number of samples that must lie beyond the tail value.
const tailMin = 10

// minTailSamples is the smallest sample count whose tail is not below the
// median: the (tailMin+1)-th largest of 2*tailMin+1 samples is the median.
const minTailSamples = 2*tailMin + 1

// tail returns the highest percentile of xs with at least tailMin samples
// beyond it, and which percentile that is: the (tailMin+1)-th largest sample,
// at percentile 100*i/(n-1) of the sorted samples. It fails when xs is too
// short for that value to lie at or above the median.
func tail(xs []float64) (value, pct float64, err error) {
	n := len(xs)
	if n < minTailSamples {
		return 0, 0, fmt.Errorf("tail needs %d samples, have %d", minTailSamples, n)
	}
	i := n - 1 - tailMin
	return sorted(xs)[i], 100 * float64(i) / float64(n-1), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
