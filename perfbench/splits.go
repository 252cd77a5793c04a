package main

import (
	"fmt"
	"io"
	"time"
)

// The per-layer predictions that one traced run can check on its own: the
// coherence counters read zero on uniform-vw, and the multi-kernel counters
// read non-zero on groups-k2 and zero everywhere else.
func localSplits(name string, v map[string]float64) []string {
	var out []string
	if name == "uniform-vw" {
		coh := v["coherence.hits_per_op"] + v["coherence.fetches_per_op"] +
			v["coherence.invalidations_per_op"] + v["coherence.recalls_per_op"]
		out = append(out, fmt.Sprintf("coherence counters zero on uniform-vw: %s (sum %g per op)", held(coh == 0), coh))
	}
	mk := []float64{v["sim.mk.windows_per_op"], v["sim.mk.extensions_per_op"],
		v["sim.mk.pipelined_replays_per_op"], v["sim.mk.replay_records_per_op"]}
	nonzero := 0
	for _, x := range mk {
		if x != 0 {
			nonzero++
		}
	}
	if name == "groups-k2" {
		out = append(out, fmt.Sprintf("sim.mk counters non-zero on groups-k2: %s (%d of %d non-zero)", held(nonzero == len(mk)), nonzero, len(mk)))
	} else {
		out = append(out, fmt.Sprintf("sim.mk counters zero on %s: %s (%d of %d non-zero)", name, held(nonzero == 0), nonzero, len(mk)))
	}
	return out
}

func held(ok bool) string {
	if ok {
		return "held"
	}
	return "DID NOT HOLD"
}

// runAll runs every workload traced, one after another, prints each report,
// then every predicted split, including the one that compares workloads: the
// detector's share of host time is higher on uniform-vw than on
// prodchain-mesi. The last line sums the trial counts and keys each metric by
// workload/metric.
func runAll(w io.Writer, seed int64, dur time.Duration) int {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	share := map[string]float64{}
	var splits []string
	for _, def := range workloads {
		r := traced(def, seed, dur)
		r.print(w)
		rr := r.result()
		res.Correct = res.Correct && rr.Correct
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
		for k, m := range rr.Metrics {
			res.Metrics[def.name+"/"+k] = m
		}
		share[def.name] = r.values["detector.share"]
		splits = append(splits, localSplits(def.name, r.values)...)
	}
	u, p := share["uniform-vw"], share["prodchain-mesi"]
	splits = append(splits, fmt.Sprintf("detector share higher on uniform-vw (%.4f) than on prodchain-mesi (%.4f): %s", u, p, held(u > p)))
	fmt.Fprintln(w, "predicted splits:")
	for _, s := range splits {
		fmt.Fprintf(w, "  %s\n", s)
	}
	return printResult(w, res)
}
