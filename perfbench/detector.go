package main

import (
	"sync/atomic"
	"time"

	"dsmrace/internal/core"
	"dsmrace/internal/vclock"
)

// timedDetector wraps the exact vector-clock detector and times every
// AreaState.OnAccess of the states it hands out. It changes nothing the
// simulation can observe: the wrapped states forward core.ClockAccessor and
// core.AbsorbElider, so the transport takes the same paths as without the
// wrapper. The counters are atomic because the shards of a multi-kernel run
// call the states of their own areas at the same time.
type timedDetector struct {
	inner core.Detector
	calls atomic.Int64
	ns    atomic.Int64
}

// vwState is what the exact vector-clock detector's area state implements.
type vwState interface {
	core.AreaState
	core.ClockAccessor
	core.AbsorbElider
}

func (d *timedDetector) Name() string { return d.inner.Name() }

func (d *timedDetector) NewAreaState(n int) core.AreaState {
	return &timedState{vwState: d.inner.NewAreaState(n).(vwState), d: d}
}

// timedState times OnAccess and forwards every other method to the wrapped
// state.
type timedState struct {
	vwState
	d *timedDetector
}

func (s *timedState) OnAccess(acc core.Access, home int, absorb vclock.Masked) (*core.Report, vclock.Masked) {
	start := time.Now()
	rep, clk := s.vwState.OnAccess(acc, home, absorb)
	s.d.ns.Add(int64(time.Since(start)))
	s.d.calls.Add(1)
	return rep, clk
}
