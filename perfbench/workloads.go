package main

import (
	"fmt"
	"time"

	"dsmrace/internal/coherence"
	"dsmrace/internal/core"
	"dsmrace/internal/dsm"
	"dsmrace/internal/mcheck"
	"dsmrace/internal/rdma"
	"dsmrace/internal/workload"
)

// simStats are a trial's simulated statistics. They depend only on the
// workload and the seed, so every trial of one run must produce the same
// value, traced or not.
type simStats struct {
	events, msgs, wireBytes, overheadBytes uint64
	virtNs                                 int64
	races, storageBytes                    int
	coh                                    coherence.Stats
	kernels                                int
	windows, extensions, pipelined, replay uint64
	mcRuns, mcPruned, mcMemoHits, mcUnique int
	mcStateFold                            uint64
}

// trialOut is what one checked trial leaves behind: its simulated statistics
// and the multi-kernel's wall-time split, which is a host measurement.
type trialOut struct {
	sim                 simStats
	windowNs, barrierNs int64
}

// setupTimes splits one setup into its steps.
type setupTimes struct{ build, new, alloc time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.new + s.alloc }

// workloadDef is one benchmark workload. prepare does everything before the
// first simulated event and returns the run, which executes the trial and
// checks its output. det is the detector a DSM workload runs under.
type workloadDef struct {
	name, why string
	ops       int // program operations (mcheck: verdicts) per trial
	// procs is GOMAXPROCS for the run: the parallelism the workload has. A
	// single-kernel simulation runs one goroutine at a time, and a second P
	// only bounces its hand-offs between OS threads: on a 2-vCPU host that
	// made it 25-35% slower and spread its trial times over twice the range.
	procs   int
	prepare func(seed int64, det core.Detector) (run func() (trialOut, error), st setupTimes, err error)
}

const (
	uniformProcs, uniformOps          = 256, 50
	chainStages, chainRounds          = 4, 3500
	groupsProcs, groupsSize, groupsRd = 512, 8, 24
	groupsKernels                     = 2
	// iriwRuns is the schedule count of iriw under MESI with POR, the pin of
	// the model checker's own POR matrix test.
	iriwRuns = 7751
)

var workloads = []workloadDef{
	dsmWorkload("uniform-vw",
		"widest clocks (n=256) on every access, most wire bytes per op; coherence idle",
		func() workload.Workload {
			return workload.Random(workload.RandomSpec{
				Procs: uniformProcs, Areas: 2 * uniformProcs, AreaWords: 4,
				OpsPerProc: uniformOps, ReadPercent: 50, LockDiscipline: true,
			})
		}, "write-update", 1, uniformProcs*uniformOps),
	dsmWorkload("prodchain-mesi",
		"MESI caching path: 3 of 4 rereads hit a copy, every produce invalidates; goroutine hand-offs dominate",
		func() workload.Workload { return workload.ProducerConsumerChain(chainStages, chainRounds, 8, 4) },
		"mesi", 1, chainStages*chainRounds),
	dsmWorkload("groups-k2",
		"the only multi-kernel run (2 shards: windows, barriers, pipelined replay); sparse clocks, largest setup",
		func() workload.Workload { return workload.MigratoryGroups(groupsProcs, groupsSize, groupsRd, 8) },
		"write-update", groupsKernels, groupsProcs*groupsRd),
	{
		name:  "mcheck-iriw",
		why:   "model checker time to verdict: DPOR, fingerprint memo and replays of tiny clusters",
		ops:   1,
		procs: maxProcs, // mcheck.Explore runs GOMAXPROCS workers
		prepare: func(seed int64, _ core.Detector) (func() (trialOut, error), setupTimes, error) {
			var st setupTimes
			start := time.Now()
			lit, err := mcheck.LitmusByName("iriw")
			if err != nil {
				return nil, st, err
			}
			proto, err := coherence.FromName("mesi")
			if err != nil {
				return nil, st, err
			}
			st.build = time.Since(start)

			// One cluster of the litmus's shape, built as each of Explore's
			// replays builds its own: the set-up cost the model checker
			// pays once per schedule. The trial does not use it.
			start = time.Now()
			rcfg := rdma.DefaultConfig(nil, nil)
			rcfg.Coherence = proto
			c, err := dsm.New(dsm.Config{Procs: lit.Procs, Seed: seed, RDMA: rcfg})
			if err != nil {
				return nil, st, err
			}
			st.new = time.Since(start)
			start = time.Now()
			for _, v := range lit.Vars {
				if err := c.Alloc(v.Name, v.Home, 1); err != nil {
					return nil, st, err
				}
			}
			st.alloc = time.Since(start)

			return func() (trialOut, error) {
				out, err := mcheck.Explore(mcheck.Config{Litmus: lit, Protocol: proto, POR: true})
				if err != nil {
					return trialOut{}, err
				}
				switch {
				case out.Weakest != mcheck.LevelSC:
					return trialOut{}, fmt.Errorf("verdict %v, want sc", out.Weakest)
				case out.CoherenceViolations != 0:
					return trialOut{}, fmt.Errorf("%d coherence violations", out.CoherenceViolations)
				case out.Runs != iriwRuns:
					return trialOut{}, fmt.Errorf("%d runs, want %d", out.Runs, iriwRuns)
				}
				return trialOut{sim: simStats{
					mcRuns: out.Runs, mcPruned: out.Pruned, mcMemoHits: out.MemoHits,
					mcUnique: out.UniqueStates, mcStateFold: out.StateFold,
				}}, nil
			}, st, nil
		},
	},
}

// dsmWorkload builds a workload that runs one race-free workload.Workload on
// a cluster under the exact vector-clock detector. The setup mirrors
// workload.Run, split so that it can be timed apart from the run.
func dsmWorkload(name, why string, build func() workload.Workload, protocol string, kernels, ops int) workloadDef {
	return workloadDef{name: name, why: why, ops: ops, procs: kernels,
		prepare: func(seed int64, det core.Detector) (func() (trialOut, error), setupTimes, error) {
			var st setupTimes
			start := time.Now()
			w := build()
			progs := w.Programs()
			st.build = time.Since(start)

			start = time.Now()
			proto, err := coherence.FromName(protocol)
			if err != nil {
				return nil, st, err
			}
			rcfg := rdma.DefaultConfig(det, nil)
			rcfg.Coherence = proto
			c, err := dsm.New(dsm.Config{
				Procs: w.Procs, Seed: seed, RDMA: rcfg, Label: w.Name, Kernels: kernels,
				SerialOnly: w.SharedRand, LocalityGroup: w.LocalityGroup,
			})
			if err != nil {
				return nil, st, err
			}
			st.new = time.Since(start)

			start = time.Now()
			if err := w.Setup(c); err != nil {
				return nil, st, err
			}
			st.alloc = time.Since(start)

			return func() (trialOut, error) {
				res, err := c.RunEach(progs)
				if err == nil {
					err = res.FirstError()
				}
				if err == nil && w.Check != nil {
					err = w.Check(res)
				}
				switch {
				case err != nil:
					return trialOut{}, err
				case res.RaceCount != 0:
					return trialOut{}, fmt.Errorf("race-free workload signalled %d races", res.RaceCount)
				case res.Kernels != kernels:
					return trialOut{}, fmt.Errorf("ran on %d kernels, want %d (%s)", res.Kernels, kernels, res.KernelNote)
				}
				out := trialOut{sim: simStats{
					events: res.Events, msgs: res.NetStats.TotalMsgs,
					wireBytes: res.NetStats.TotalBytes, overheadBytes: res.NetStats.OverheadBytes(),
					virtNs: int64(res.Duration), races: res.RaceCount, storageBytes: res.StorageBytes,
					coh: res.Coherence, kernels: res.Kernels,
				}}
				if ws := res.WindowStats; ws != nil {
					out.sim.windows, out.sim.extensions = ws.Windows, ws.Extensions
					out.sim.pipelined, out.sim.replay = ws.PipelinedReplays, ws.ReplayRecords
					out.windowNs, out.barrierNs = ws.WindowNs, ws.BarrierNs
				}
				return out, nil
			}, st, nil
		},
	}
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
