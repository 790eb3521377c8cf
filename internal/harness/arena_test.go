package harness

import (
	"reflect"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// trialFingerprint is everything externally observable about one trial that
// the arena contract promises to preserve bit-for-bit: the scheduler
// decision trace, the recorded type schedule with its virtual timestamps,
// the oracle's violation reports, and the interleaving-coverage digest.
type trialFingerprint struct {
	trace      *core.Trace
	types      []string
	stamps     []time.Time
	violations []oracle.Report
	coverage   oracle.CoverageDigest
}

func fingerprint(recording *core.RecordingScheduler, rec *sched.Recorder, tracker *oracle.Tracker) trialFingerprint {
	entries := rec.Entries()
	stamps := make([]time.Time, len(entries))
	for i, e := range entries {
		stamps[i] = e.At
	}
	return trialFingerprint{
		trace:      recording.Trace(),
		types:      rec.Types(),
		stamps:     stamps,
		violations: tracker.Reports(),
		coverage:   tracker.Coverage(),
	}
}

// runFreshOracleTrial is the historical build-everything path: a fresh
// virtual clock, loop, pool, and network per trial.
func runFreshOracleTrial(app *bugs.App, mode Mode, seed int64) trialFingerprint {
	recording := core.NewRecording(SchedulerFor(mode, seed))
	rec := sched.NewRecorder()
	tracker := oracle.New()
	app.Run(bugs.RunConfig{
		Seed:      seed,
		Scheduler: recording,
		Recorder:  rec,
		Clock:     vclock.NewVirtual(),
		Oracle:    tracker,
	})
	return fingerprint(recording, rec, tracker)
}

// arenaWorld mirrors the campaign's per-worker world: one arena plus the
// collaborators reset in lockstep with it.
type arenaWorld struct {
	arena     *bugs.Arena
	recording *core.RecordingScheduler
	rec       *sched.Recorder
	tracker   *oracle.Tracker
}

func newArenaWorld(mode Mode, seed int64) *arenaWorld {
	return &arenaWorld{
		arena:     bugs.NewArena(false),
		recording: core.NewRecording(SchedulerFor(mode, seed)),
		rec:       sched.NewRecorder(),
		tracker:   oracle.New(),
	}
}

// reseed re-arms the world's inner scheduler for the next trial, the way
// campaign.runTrial does via Scheduler.Reseed.
func (w *arenaWorld) reseed(mode Mode, seed int64) {
	cs, ok := w.recording.Inner().(*core.Scheduler)
	if !ok {
		return // vanilla: stateless
	}
	switch mode {
	case ModeFZ:
		cs.Reseed(core.StandardParams(), seed)
	case ModeNFZ:
		cs.Reseed(core.NoFuzzParams(), 0)
	case ModeGuided:
		cs.Reseed(core.GuidedTimerParams(), seed)
	}
}

func (w *arenaWorld) run(app *bugs.App, mode Mode, seed int64) trialFingerprint {
	w.reseed(mode, seed)
	w.recording.Reset()
	w.rec.Reset()
	w.tracker.Reset()
	cfg := w.arena.Begin(bugs.RunConfig{
		Seed:      seed,
		Scheduler: w.recording,
		Recorder:  w.rec,
		Oracle:    w.tracker,
	})
	app.Run(cfg)
	return fingerprint(w.recording, w.rec, w.tracker)
}

// TestArenaResetEquivalence is the tentpole's correctness gate: for a
// spread of corpus apps (network-heavy, filesystem-heavy, promise-heavy)
// across all three Figure-6 modes and ten seeds each, a trial run in a
// reused arena world must be bit-identical to the same trial in a freshly
// built world — same decision trace, same type schedule, same virtual
// timestamps, same oracle reports, same coverage digest. The arena world is
// shared across all ten seeds of an (app, mode) cell, so trial k runs in a
// world that has already been reset k times; any state leaking through a
// reset shows up as a divergence at some seed.
func TestArenaResetEquivalence(t *testing.T) {
	apps := []string{"SIO", "MKD", "KUE", "MGS", "RST-prom"}
	seeds := 10
	if testing.Short() {
		apps = []string{"SIO", "MKD"}
		seeds = 3
	}
	for _, abbr := range apps {
		abbr := abbr
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("unknown app %q", abbr)
		}
		for _, mode := range Fig6Modes() {
			mode := mode
			t.Run(abbr+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				w := newArenaWorld(mode, 1)
				for s := 0; s < seeds; s++ {
					seed := int64(100 + s)
					fresh := runFreshOracleTrial(app, mode, seed)
					if len(fresh.types) == 0 {
						t.Fatal("trial recorded no callbacks — test is vacuous")
					}
					reused := w.run(app, mode, seed)
					if !reflect.DeepEqual(fresh.trace, reused.trace) {
						t.Fatalf("seed %d: decision trace diverged between fresh and arena worlds", seed)
					}
					if !reflect.DeepEqual(fresh.types, reused.types) {
						t.Fatalf("seed %d: type schedule diverged:\nfresh: %v\narena: %v",
							seed, fresh.types, reused.types)
					}
					if !reflect.DeepEqual(fresh.stamps, reused.stamps) {
						t.Fatalf("seed %d: virtual timestamps diverged", seed)
					}
					if !reflect.DeepEqual(fresh.violations, reused.violations) {
						t.Fatalf("seed %d: oracle reports diverged:\nfresh: %+v\narena: %+v",
							seed, fresh.violations, reused.violations)
					}
					if !reflect.DeepEqual(fresh.coverage, reused.coverage) {
						t.Fatalf("seed %d: coverage digest diverged:\nfresh: %+v\narena: %+v",
							seed, fresh.coverage, reused.coverage)
					}
				}
			})
		}
	}
}

// TestArenaTrialAllocs pins the per-trial allocation budget of the arena
// path. A fresh SIO trial costs several hundred allocations; a reused arena
// world must stay an order of magnitude below that — the regression pin
// that keeps the reset path from quietly re-growing per-trial construction.
// The REP cases pin the cluster world: control loop, node loops and network
// all reset in place, so what is left is the replicas' own state and disks.
func TestArenaTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow state allocates on the measured path")
	}
	for _, tc := range []struct {
		abbr   string
		budget float64
	}{
		{"SIO", 120}, // steady state measures ~106; headroom for map rehash jitter
		{"REP-elect", 1200},
		{"REP-replay", 1350},
	} {
		t.Run(tc.abbr, func(t *testing.T) {
			app := bugs.ByAbbr(tc.abbr)
			w := newArenaWorld(ModeFZ, 1)
			// The trial alone — reseed, reset, run — without the fingerprint
			// snapshots (Trace/Reports/Coverage clone into fresh memory by
			// design; the campaign pays that per-result, not per-reset).
			trial := func(seed int64) {
				w.reseed(ModeFZ, seed)
				w.recording.Reset()
				w.rec.Reset()
				w.tracker.Reset()
				app.Run(w.arena.Begin(bugs.RunConfig{
					Seed:      seed,
					Scheduler: w.recording,
					Recorder:  w.rec,
					Oracle:    w.tracker,
				}))
			}
			// First run builds the world; the next two let freelists and
			// scratch buffers grow to their high-water marks.
			for s := int64(1); s <= 3; s++ {
				trial(s)
			}
			seed := int64(4)
			allocs := testing.AllocsPerRun(10, func() {
				trial(seed)
				seed++
			})
			t.Logf("%s: %.0f allocs/trial", tc.abbr, allocs)
			if allocs > tc.budget {
				t.Fatalf("arena trial allocates %.0f objects, budget %.0f", allocs, tc.budget)
			}
		})
	}
}
