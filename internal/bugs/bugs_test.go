package bugs

import (
	"strings"
	"testing"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/sched"
)

func TestRegistryIntegrity(t *testing.T) {
	all := All()
	if len(all) != 20 {
		t.Fatalf("corpus has %d entries, want 20 (12 studied + 3 novel + KUE-2014 + 2 promise ports + 2 cluster)", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Abbr == "" || a.Name == "" || a.Issue == "" || a.Impact == "" {
			t.Errorf("%+v: incomplete metadata", a.Abbr)
		}
		if seen[a.Abbr] {
			t.Errorf("duplicate abbreviation %q", a.Abbr)
		}
		seen[a.Abbr] = true
		if a.Run == nil {
			t.Errorf("%s: no Run", a.Abbr)
		}
		if a.RunFixed == nil {
			t.Errorf("%s: no RunFixed", a.Abbr)
		}
	}
	if len(Studied()) != 12 {
		t.Errorf("Studied() = %d, want 12", len(Studied()))
	}
	// The paper's Figure 6 exclusions (§5.1.1).
	for _, excluded := range []string{"EPL", "WPT", "RST", "FPS-novel", "KUE-2014"} {
		if a := ByAbbr(excluded); a == nil || a.InFig6 {
			t.Errorf("%s should exist and be excluded from Fig 6", excluded)
		}
	}
	if got := len(Fig6Set()); got != 13 {
		t.Errorf("Fig6Set has %d entries, want 13", got)
	}
	if ByAbbr("nope") != nil {
		t.Error("ByAbbr should return nil for unknown abbreviations")
	}
}

func TestTable2Order(t *testing.T) {
	want := []string{"EPL", "GHO", "FPS", "CLF", "NES", "AKA", "WPT", "SIO",
		"MKD", "KUE", "RST", "MGS", "SIO-novel", "KUE-novel", "FPS-novel", "KUE-2014",
		"RST-prom", "AKA-prom", "REP-elect", "REP-replay"}
	all := All()
	for i, a := range all {
		if a.Abbr != want[i] {
			t.Fatalf("registry[%d] = %s, want %s (Table 2 order)", i, a.Abbr, want[i])
		}
	}
}

func TestRaceTypeVocabulary(t *testing.T) {
	valid := map[string]bool{"AV": true, "OV": true, "(C)OV": true, "Time": true}
	avCount, ovCount := 0, 0
	for _, a := range Studied() {
		if !valid[a.RaceType] {
			t.Errorf("%s: unexpected race type %q", a.Abbr, a.RaceType)
		}
		switch a.RaceType {
		case "AV":
			avCount++
		case "OV", "(C)OV":
			ovCount++
		}
	}
	// §3.2: 9/12 AVs and 3/12 OVs (two of them commutative).
	if avCount != 9 || ovCount != 3 {
		t.Errorf("studied corpus has %d AVs and %d OVs, want 9 and 3", avCount, ovCount)
	}
}

// TestEveryBugRunsCleanVanilla checks that every Run completes without
// setup errors under the vanilla scheduler (manifestation is allowed —
// some bugs manifest even on nodeV, as in the paper).
func TestEveryBugRunsCleanVanilla(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole corpus")
	}
	for _, app := range All() {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			t.Parallel()
			out := app.Run(RunConfig{Seed: 11})
			if strings.HasPrefix(out.Note, "setup:") || strings.HasPrefix(out.Note, "run:") {
				t.Fatalf("infrastructure failure: %s", out.Note)
			}
		})
	}
}

// TestEveryBugRunsCleanFuzzed does the same under the standard fuzzing
// parameterization, with the schedule recorded.
func TestEveryBugRunsCleanFuzzed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole corpus")
	}
	for _, app := range All() {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			t.Parallel()
			rec := sched.NewRecorder()
			out := app.Run(RunConfig{
				Seed:      13,
				Scheduler: core.NewScheduler(core.StandardParams(), 13),
				Recorder:  rec,
			})
			if strings.HasPrefix(out.Note, "setup:") || strings.HasPrefix(out.Note, "run:") {
				t.Fatalf("infrastructure failure: %s", out.Note)
			}
			if rec.Len() == 0 {
				t.Fatal("no schedule recorded")
			}
		})
	}
}

// TestFixedVariantsClean runs each patched variant under one fuzzed seed;
// a manifestation would mean the paper's fix is modelled wrong.
func TestFixedVariantsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole corpus")
	}
	for _, app := range All() {
		app := app
		if app.Abbr == "KUE-2014" {
			continue // the "fix" disables the assertion; nothing to check here
		}
		t.Run(app.Abbr, func(t *testing.T) {
			t.Parallel()
			out := app.RunFixed(RunConfig{
				Seed:      17,
				Scheduler: core.NewScheduler(core.StandardParams(), 17),
			})
			if out.Manifested {
				t.Fatalf("fixed variant manifested: %s", out.Note)
			}
		})
	}
}

func TestWaitUntilRetries(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	n := 0
	var got *bool
	WaitUntil(l, time.Millisecond, time.Millisecond, 5,
		func() bool { n++; return n == 3 },
		func(ok bool) { got = &ok })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || !*got {
		t.Fatalf("WaitUntil: got %v, want success on third check", got)
	}
	if n != 3 {
		t.Fatalf("cond evaluated %d times, want 3", n)
	}
}

func TestWaitUntilGivesUp(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	var got *bool
	WaitUntil(l, time.Millisecond, time.Millisecond, 3,
		func() bool { return false },
		func(ok bool) { got = &ok })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || *got {
		t.Fatalf("WaitUntil: got %v, want failure after rounds exhausted", got)
	}
}

func TestWatchdogStopsWedgedLoop(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	l.NewSource("never-delivers") // keeps the loop alive forever
	Watchdog(l, 20*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire")
	}
}

func TestAddTimerNoiseStops(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	AddTimerNoise(l, time.Millisecond, 5*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("noise timer never stopped")
	}
}

func TestAddFSNoiseStops(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	RunConfig{}.AddFSNoise(l, 1, 2*time.Millisecond, 6*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fs noise never stopped")
	}
}

// TestMkdirpFixedAlwaysCorrect: property over seeds — the patched mkdirp
// leaves both paths existing and reports no error, under heavy fuzzing.
func TestMkdirpFixedAlwaysCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed property")
	}
	app := ByAbbr("MKD")
	for seed := int64(100); seed < 110; seed++ {
		out := app.RunFixed(RunConfig{
			Seed:      seed,
			Scheduler: core.NewScheduler(core.StandardParams(), seed),
		})
		if out.Manifested {
			t.Fatalf("seed %d: fixed mkdirp failed: %s", seed, out.Note)
		}
	}
}
