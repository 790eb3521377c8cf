package campaign

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/vclock"
)

// timerProbeRun builds a run function that calls FilterTimers(1) `points`
// times and manifests iff every probe index in `need` was deferred — a
// deterministic, loop-free stand-in for a race that needs a specific small
// perturbation set.
func timerProbeRun(points int, need ...int) func(bugs.RunConfig) bugs.Outcome {
	return func(cfg bugs.RunConfig) bugs.Outcome {
		deferred := make(map[int]bool)
		for i := 0; i < points; i++ {
			run, _ := cfg.Scheduler.FilterTimers(1)
			if run == 0 {
				deferred[i] = true
			}
		}
		for _, n := range need {
			if !deferred[n] {
				return bugs.Outcome{}
			}
		}
		return bugs.Outcome{Manifested: true, Note: "probe race"}
	}
}

// allDeferredTrace mimics a recorded fuzzed run in which every timer probe
// was deferred.
func allDeferredTrace(points int) *core.Trace {
	t := &core.Trace{}
	for i := 0; i < points; i++ {
		t.Timers = append(t.Timers, core.TimerDecision{Due: 1, Run: 0, Delay: 5 * time.Millisecond})
	}
	return t
}

func TestMinimizeTraceFindsMinimalSet(t *testing.T) {
	const points = 10
	run := timerProbeRun(points, 3, 7)
	res := MinimizeTrace(run, 1, allDeferredTrace(points), 64)
	if !res.Reproduced {
		t.Fatalf("minimization lost the manifestation: %+v", res)
	}
	if res.Original != points {
		t.Errorf("Original = %d, want %d", res.Original, points)
	}
	want := []PerturbPoint{{Stream: "timer", Index: 3}, {Stream: "timer", Index: 7}}
	if !reflect.DeepEqual(res.Points, want) {
		t.Errorf("Points = %v, want %v", res.Points, want)
	}
	if res.Minimal() != 2 {
		t.Errorf("Minimal = %d, want 2", res.Minimal())
	}
	if res.Replays > 64 {
		t.Errorf("budget exceeded: %d replays", res.Replays)
	}
}

func TestMinimizeTraceVanillaManifestation(t *testing.T) {
	// Manifests with no perturbation at all: the minimal set is empty and
	// found in a single replay.
	run := timerProbeRun(5) // no needed deferrals
	res := MinimizeTrace(run, 1, allDeferredTrace(5), 64)
	if !res.Reproduced || len(res.Points) != 0 || res.Replays != 1 {
		t.Fatalf("vanilla manifestation should minimize to the empty set in one replay: %+v", res)
	}
}

func TestMinimizeTraceReplayInfidelity(t *testing.T) {
	// Never manifests under replay: the minimizer must give up after the
	// two sanity replays and hand back the full set unminimized.
	run := func(bugs.RunConfig) bugs.Outcome { return bugs.Outcome{} }
	trace := allDeferredTrace(4)
	res := MinimizeTrace(run, 1, trace, 64)
	if res.Reproduced {
		t.Fatal("Reproduced must be false when replay never manifests")
	}
	if res.Replays != 2 {
		t.Errorf("Replays = %d, want 2 (empty-set probe + full-set probe)", res.Replays)
	}
	if len(res.Points) != 4 {
		t.Errorf("unminimized set should be returned: %v", res.Points)
	}
}

func TestMinimizeTraceRespectsBudget(t *testing.T) {
	const points = 24
	run := timerProbeRun(points, 5, 13, 21)
	res := MinimizeTrace(run, 1, allDeferredTrace(points), 6)
	if res.Replays > 6 {
		t.Fatalf("budget 6 exceeded: %d replays", res.Replays)
	}
	// Whatever the budget allowed, the returned set must still manifest.
	if !res.Reproduced {
		t.Fatal("budget-limited result must still be a confirmed manifesting set")
	}
	probe := map[int]bool{}
	for _, p := range res.Points {
		if p.Stream != "timer" {
			t.Fatalf("unexpected stream %q", p.Stream)
		}
		probe[p.Index] = true
	}
	for _, n := range []int{5, 13, 21} {
		if !probe[n] {
			t.Fatalf("confirmed set %v missing required point %d", res.Points, n)
		}
	}
}

func TestNeutralizedMixedStreams(t *testing.T) {
	trace := &core.Trace{
		Timers:  []core.TimerDecision{{Due: 2, Run: 1, Delay: time.Millisecond}},
		Shuffle: []core.ShuffleDecision{{N: 2, RunOrder: []int{1, 0}}},
		Close:   []bool{true},
		Pick:    []core.PickDecision{{N: 3, I: 2}},
	}
	pts := perturbedPoints(trace)
	if len(pts) != 4 {
		t.Fatalf("perturbedPoints = %v, want 4 points", pts)
	}
	keep := map[PerturbPoint]bool{{Stream: "close", Index: 0}: true}
	n := neutralized(trace, keep)
	if n.Timers[0].Perturbs() || !n.Shuffle[0].Identity() || n.Pick[0].Perturbs() {
		t.Errorf("unkept perturbations survived: %+v", n)
	}
	if !n.Close[0] {
		t.Error("kept perturbation was neutralized")
	}
	if !trace.Timers[0].Perturbs() {
		t.Error("neutralized mutated the original trace")
	}
}

// TestFullTraceReplayReproducesPoolApps is the replay-fidelity gate for the
// pool-heavy corpus apps: every manifesting trial of an MKD, AKA or RST
// campaign (40 trials, one worker, seeds 1–5) must manifest again when its
// full recorded trace is replayed the way MinimizeTrace replays it. These
// apps race file-system work on the worker pool, so the replay must pick
// tasks under the recorded arm's wait policy, not the no-fuzz base's.
func TestFullTraceReplayReproducesPoolApps(t *testing.T) {
	arms := DefaultArms()
	for _, abbr := range []string{"MKD", "AKA", "RST"} {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from corpus", abbr)
		}
		manifested := 0
		for seed := int64(1); seed <= 5; seed++ {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			if _, err := Run(Config{App: app, Trials: 40, Workers: 1, BaseSeed: seed,
				MinimizeTrials: -1, CheckpointPath: path}); err != nil {
				t.Fatal(err)
			}
			st, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				e := st.Trials[i]
				if !e.Manifested {
					continue
				}
				manifested++
				recording := core.NewRecording(core.NewScheduler(arms[e.Arm].Params, e.Seed))
				if out := app.Run(bugs.RunConfig{Seed: e.Seed, Scheduler: recording, Clock: vclock.NewVirtual()}); !out.Manifested {
					t.Fatalf("%s seed %d trial %d: did not manifest again in a fresh world", abbr, seed, i)
				}
				replay := core.NewReplay(recording.Trace(), core.NewNoFuzzScheduler())
				if out := app.Run(bugs.RunConfig{Seed: e.Seed, Scheduler: replay, Clock: vclock.NewVirtual()}); !out.Manifested {
					t.Errorf("%s seed %d trial %d (%s): full-trace replay did not manifest (%d misses)",
						abbr, seed, i, e.ArmName, replay.Misses())
				}
			}
		}
		if manifested == 0 {
			t.Fatalf("%s: no manifesting trial at seeds 1–5 — gate is vacuous", abbr)
		}
		t.Logf("%s: %d manifesting trials replayed", abbr, manifested)
	}
}
