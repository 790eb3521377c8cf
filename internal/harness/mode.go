// Package harness drives the paper's evaluation (§5): it runs the bug
// corpus under the four runtime configurations, measures manifestation
// rates (Figure 6), schedule-space variation (Figure 7), and overhead
// (Figure 8), and renders Tables 1-3.
package harness

import (
	"fmt"
	"sync/atomic"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// Mode selects the runtime configuration of §5.1: vanilla Node
// (VanillaScheduler), the Node.fz architecture without fuzzing, the
// standard fuzzing parameterization, or the §5.2.3 guided one.
type Mode int

// The runtime configurations.
const (
	ModeVanilla Mode = iota // nodeV
	ModeNFZ                 // nodeNFZ
	ModeFZ                  // nodeFZ
	ModeGuided              // nodeFZ(guided)
)

// String implements fmt.Stringer with the paper's names.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "nodeV"
	case ModeNFZ:
		return "nodeNFZ"
	case ModeFZ:
		return "nodeFZ"
	case ModeGuided:
		return "nodeFZ(guided)"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode resolves a mode name (as printed by String).
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModeVanilla, ModeNFZ, ModeFZ, ModeGuided} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown mode %q", s)
}

// virtualTime is the clock mode of the evaluation drivers, set by the
// fzbench -virtual-time flag.
var virtualTime atomic.Bool

// SetVirtualTime switches every trial the harness runs onto a fresh
// virtual clock, so waits elapse in simulated time and trials run at CPU
// speed. Off (the default) keeps the paper's wall-time measurements.
func SetVirtualTime(on bool) { virtualTime.Store(on) }

// trialClock returns the clock a new trial's RunConfig should carry: a
// fresh virtual clock when virtual time is on (a clock's participant
// accounting is per trial), nil (wall time) otherwise.
func trialClock() vclock.Clock {
	if virtualTime.Load() {
		return vclock.NewVirtual()
	}
	return nil
}

// Fig6Modes are the three configurations compared throughout §5.1.
func Fig6Modes() []Mode { return []Mode{ModeVanilla, ModeNFZ, ModeFZ} }

// SchedulerFor builds the scheduler for one trial. seed feeds the fuzzing
// RNG; vanilla and no-fuzz configurations ignore it.
func SchedulerFor(m Mode, seed int64) eventloop.Scheduler {
	switch m {
	case ModeVanilla:
		return eventloop.VanillaScheduler{}
	case ModeNFZ:
		return core.NewNoFuzzScheduler()
	case ModeFZ:
		return core.NewScheduler(core.StandardParams(), seed)
	case ModeGuided:
		return core.NewGuidedScheduler(seed)
	}
	panic("harness: unknown mode")
}
