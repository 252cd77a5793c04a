package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// startCPUProfile starts the CPU profiler, writing to a new file in the
// temporary directory.
func startCPUProfile() (*os.File, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, nil
}

// foldCPUProfile folds the profile a stopped profiler wrote to f and removes
// the file.
func foldCPUProfile(f *os.File) (shares, error) {
	defer os.Remove(f.Name())
	if err := f.Close(); err != nil {
		return shares{}, err
	}
	return profileShares(f.Name())
}

// profileShares folds the CPU profile in the file at path into self-time
// shares. It reads the profile through `go tool pprof -traces`, which prints
// every distinct stack, leaf first, under its sample count.
func profileShares(path string) (shares, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-sample_index=samples", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return shares{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(string(out))
}

// foldTraces folds the output of `go tool pprof -traces -sample_index=samples`.
// A header is followed by traces, each opened by a line of dashes: the
// trace's first line is its sample count and leaf function, each further line
// one caller. Inlined frames carry a trailing "(inline)", which is dropped.
func foldTraces(out string) (shares, error) {
	s := shares{module: map[string]int64{}}
	var (
		stack  []string
		count  int64
		inBody bool
	)
	flush := func() {
		if stack != nil {
			s.add(stack, count)
		}
		stack = nil
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody = true
			continue
		}
		f := strings.Fields(line)
		if !inBody || len(f) == 0 {
			continue
		}
		if stack == nil {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return shares{}, fmt.Errorf("pprof traces: unexpected trace line %q", line)
			}
			count, stack = n, []string{f[1]}
			continue
		}
		stack = append(stack, f[0])
	}
	flush()
	if s.total == 0 {
		return shares{}, fmt.Errorf("pprof traces: no samples")
	}
	return s, nil
}

// repoPrefix is the import path prefix of the simulator's packages.
const repoPrefix = "dsmrace/internal/"

// moduleOf names the package a function belongs to: the last element of a
// repository package ("sim", "vclock", ...), "runtime" for the Go runtime,
// and "other" for everything else, the benchmark itself included.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			rest = rest[:i]
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	return "other"
}

// handoffFrames are the Go scheduler and channel functions a goroutine
// passes through when it parks on or wakes another goroutine: the kernel's
// baton hand-off (unbuffered channel send/receive) and the worker-pool
// barriers of the multi-kernel and the model checker.
var handoffFrames = map[string]bool{
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.park_m": true, "runtime.schedule": true, "runtime.findRunnable": true,
	"runtime.mcall": true, "runtime.wakep": true, "runtime.startm": true,
	"runtime.stopm": true, "runtime.semacquire1": true, "runtime.semrelease1": true,
	"runtime.goschedImpl": true, "runtime.gosched_m": true, "runtime.goexit0": true,
}

// shares is a profile folded into self-time shares.
type shares struct {
	total   int64
	module  map[string]int64 // by moduleOf(leaf)
	handoff int64            // runtime-leaf samples under a hand-off frame
}

// add counts one stack, leaf first, sampled count times.
func (s *shares) add(stack []string, count int64) {
	s.total += count
	m := moduleOf(stack[0])
	s.module[m] += count
	if m != "runtime" {
		return
	}
	for _, f := range stack {
		if handoffFrames[f] {
			s.handoff += count
			return
		}
	}
}

// share returns the fraction of samples whose leaf is in module m.
func (s shares) share(m string) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.module[m]) / float64(s.total)
}

func (s shares) handoffShare() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.handoff) / float64(s.total)
}
