package harness

import (
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/sched"
)

// Fig7Modules are the module suites whose schedules §5.3 compares
// (Figure 7); Fig8 uses the same set for its overhead measurement.
var Fig7Modules = []string{"FPS", "CLF", "AKA", "SIO", "MKD", "KUE", "MGS"}

// runSuite executes one module's "test suite" — the buggy reproduction
// followed by the patched variant, like a before/after regression pair —
// under the given mode, recording the type schedule and returning the wall
// time plus the suite's aggregate scheduler decision counters.
func runSuite(abbr string, mode Mode, seed int64, rec *sched.Recorder) (time.Duration, core.DecisionCounters) {
	app := bugs.ByAbbr(abbr)
	if app == nil {
		panic("harness: unknown module " + abbr)
	}
	start := time.Now()
	s1 := SchedulerFor(mode, seed)
	cfg := bugs.RunConfig{Seed: seed, Scheduler: s1, Clock: trialClock()}
	if rec != nil {
		cfg.Recorder = rec
	}
	app.Run(cfg)
	s2 := SchedulerFor(mode, seed+1)
	cfg2 := bugs.RunConfig{Seed: seed + 1, Scheduler: s2, Clock: trialClock()}
	if rec != nil {
		cfg2.Recorder = rec
	}
	if app.RunFixed != nil {
		app.RunFixed(cfg2)
	}
	elapsed := time.Since(start)
	var dec core.DecisionCounters
	if d, ok := core.DecisionsOf(s1); ok {
		dec = dec.Add(d)
	}
	if d, ok := core.DecisionsOf(s2); ok {
		dec = dec.Add(d)
	}
	return elapsed, dec
}
