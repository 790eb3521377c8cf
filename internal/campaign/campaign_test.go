package campaign

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/metrics"
)

// newFakeApp builds a deterministic, loop-free bug application: schedule
// and manifestation are pure functions of the trial seed, and exec counts
// how many times each seed's trial body ran (minimization replays excluded
// by construction only when MinimizeTrials < 0).
func newFakeApp(exec map[int64]int, mu *sync.Mutex) *bugs.App {
	return &bugs.App{
		Abbr: "FAKE",
		Run: func(cfg bugs.RunConfig) bugs.Outcome {
			if exec != nil {
				mu.Lock()
				exec[cfg.Seed]++
				mu.Unlock()
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			kinds := []string{"timer", "net-read", "work-done", "close"}
			n := 4 + rng.Intn(12)
			for i := 0; i < n; i++ {
				// Draw unconditionally so the rng stream — and therefore the
				// manifestation decision — is identical under minimization
				// replays, which pass no Recorder.
				kind := kinds[rng.Intn(len(kinds))]
				if cfg.Recorder != nil {
					cfg.Recorder.Record(kind, "")
				}
				cfg.Scheduler.FilterTimers(i%2 + 1)
				cfg.Scheduler.DeferClose("h")
			}
			if rng.Intn(4) == 0 {
				return bugs.Outcome{Manifested: true, Note: "fake race"}
			}
			return bugs.Outcome{}
		},
	}
}

func TestCampaignCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	var mu sync.Mutex
	exec := make(map[int64]int)
	app := newFakeApp(exec, &mu)

	cfg := Config{
		App: app, Trials: 6, Workers: 2, BaseSeed: 42,
		CheckpointPath: path, MinimizeTrials: -1,
	}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != 6 || r1.Resumed != 0 || r1.Watermark != 6 {
		t.Fatalf("first run: %+v", r1)
	}

	cfg.Trials = 14
	cfg.Resume = true
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Resumed != 6 {
		t.Errorf("Resumed = %d, want 6", r2.Resumed)
	}
	if r2.Done != 14 || r2.Watermark != 14 {
		t.Errorf("resumed run: Done=%d Watermark=%d, want 14/14", r2.Done, r2.Watermark)
	}

	// No trial body may have run twice: resume must skip completed trials.
	if len(exec) != 14 {
		t.Errorf("%d distinct seeds executed, want 14", len(exec))
	}
	for seed, n := range exec {
		if n != 1 {
			t.Errorf("seed %d executed %d times", seed, n)
		}
	}

	// The journal is the source of truth: 14 trials, correct derived seeds,
	// watermark 14, and cumulative bandit statistics covering every trial.
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 14 || st.Watermark() != 14 {
		t.Fatalf("journal: %d trials, watermark %d", len(st.Trials), st.Watermark())
	}
	manifested := 0
	for i, e := range st.Trials {
		if e.Seed != TrialSeed(42, i) {
			t.Errorf("trial %d journaled seed %d, want %d", i, e.Seed, TrialSeed(42, i))
		}
		if e.Manifested {
			manifested++
		}
	}
	if manifested != r2.Manifested {
		t.Errorf("journal shows %d manifested, result says %d", manifested, r2.Manifested)
	}
	pulls := 0
	for _, a := range r2.Arms {
		pulls += a.Pulls
	}
	if pulls != 14 {
		t.Errorf("bandit pulls = %d, want 14 (6 replayed + 8 live)", pulls)
	}
}

func TestCampaignResumeAfterKillTornJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := newFakeApp(nil, nil)
	if _, err := Run(Config{App: app, Trials: 4, Workers: 2, BaseSeed: 7,
		CheckpointPath: path, MinimizeTrials: -1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-append: a torn, newline-less final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"trial","tri`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("torn journal must load: %v", err)
	}
	if !st.TornTail || len(st.Trials) != 4 {
		t.Fatalf("torn load: TornTail=%v trials=%d", st.TornTail, len(st.Trials))
	}

	r, err := Run(Config{App: app, Trials: 9, Workers: 2, BaseSeed: 7,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Resumed != 4 || r.Done != 9 || r.Watermark != 9 {
		t.Fatalf("resume over torn journal: %+v", r)
	}
	// The resumed run must not have concatenated onto the torn line: the
	// final journal parses cleanly end to end.
	st, err = LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 9 || st.Watermark() != 9 {
		t.Fatalf("post-resume journal: %d trials, watermark %d", len(st.Trials), st.Watermark())
	}
}

func TestCampaignBudgetStopsAndResumes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := newFakeApp(nil, nil)
	r1, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 3,
		Budget: time.Nanosecond, CheckpointPath: path, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Done != 0 || r1.Stopped != 5 || r1.Watermark != 0 {
		t.Fatalf("budget stop: %+v", r1)
	}
	r2, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 3,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Done != 5 || r2.Watermark != 5 {
		t.Fatalf("resume after budget stop: %+v", r2)
	}
}

func TestCampaignMinimizesAManifestingTrial(t *testing.T) {
	app := newFakeApp(nil, nil)
	res, err := Run(Config{App: app, Trials: 16, Workers: 2, BaseSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Manifested == 0 {
		t.Fatal("fixture produced no manifestation; pick a different BaseSeed")
	}
	if len(res.Minimized) != 1 {
		t.Fatalf("MinimizeTrials defaults to 1, got %d minimizations", len(res.Minimized))
	}
	m := res.Minimized[0]
	if !m.Reproduced {
		t.Errorf("fake app manifests deterministically per seed; minimization must reproduce: %+v", m)
	}
	if m.Minimal != len(m.Points) {
		t.Errorf("Minimal=%d inconsistent with %d points", m.Minimal, len(m.Points))
	}
}

func TestCampaignMetricsStream(t *testing.T) {
	var buf bytes.Buffer
	w := metrics.NewJSONLWriter(&buf)
	app := newFakeApp(nil, nil)
	res, err := Run(Config{App: app, Trials: 5, Workers: 2, BaseSeed: 9,
		MinimizeTrials: -1, Metrics: w})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := metrics.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != res.Done {
		t.Fatalf("%d metrics records for %d trials", len(recs), res.Done)
	}
	for _, r := range recs {
		if r.Bug != "FAKE" || len(r.Mode) < len("campaign/") || r.Mode[:len("campaign/")] != "campaign/" {
			t.Fatalf("unexpected record identity: bug=%q mode=%q", r.Bug, r.Mode)
		}
		if len(r.Schedule) == 0 {
			t.Fatal("metrics record missing type schedule")
		}
	}
}

// TestCampaignPanickingTrialReleasesArm: a trial that panics must not take
// down the campaign, must not journal a completion (resume re-runs it), and
// must release its provisional bandit pull so the arm's mean is not
// permanently deflated by pulls that never earned reward.
func TestCampaignPanickingTrialReleasesArm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	app := &bugs.App{
		Abbr: "PANIC",
		Run: func(cfg bugs.RunConfig) bugs.Outcome {
			panic("trial exploded")
		},
	}
	res, err := Run(Config{App: app, Trials: 6, Workers: 2, BaseSeed: 5,
		CheckpointPath: path, MinimizeTrials: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored != 6 || res.Done != 0 || res.Watermark != 0 {
		t.Fatalf("panicking campaign: %+v", res)
	}
	for _, a := range res.Arms {
		if a.Pulls != 0 || a.Reward != 0 {
			t.Fatalf("errored trials left phantom bandit state: %+v", res.Arms)
		}
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Trials) != 0 {
		t.Fatalf("errored trials must not journal completions: %d trial records", len(st.Trials))
	}
}

// TestCampaignCoverageResumeRoundTrip: a coverage campaign journals its
// coverage contributions and a resume replays them — the resumed run's
// global coverage map contains at least everything the first run found, and
// resumed trials are not re-run.
func TestCampaignCoverageResumeRoundTrip(t *testing.T) {
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from corpus")
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cfg := Config{App: app, Trials: 8, Workers: 2, BaseSeed: 11,
		Coverage: true, CheckpointPath: path, MinimizeTrials: -1}
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CoveragePairs == 0 && r1.CoverageDigests == 0 {
		t.Fatalf("coverage campaign found no coverage at all: %+v", r1)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Coverage) == 0 {
		t.Fatal("no coverage records journaled")
	}

	cfg.Trials = 16
	cfg.Resume = true
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Resumed != 8 || r2.Done != 16 || r2.Watermark != 16 {
		t.Fatalf("coverage resume: %+v", r2)
	}
	if r2.CoverageDigests < r1.CoverageDigests || r2.CoveragePairs < r1.CoveragePairs ||
		r2.CoverageTuples < r1.CoverageTuples {
		t.Fatalf("resume lost coverage state: first %d/%d/%d, resumed %d/%d/%d",
			r1.CoveragePairs, r1.CoverageDigests, r1.CoverageTuples,
			r2.CoveragePairs, r2.CoverageDigests, r2.CoverageTuples)
	}
}

// TestCoverageResumeAfterKillMatchesStraight cuts a coverage campaign's
// journal where a kill between a trial's two appends would: after the
// trial's coverage record, before its trial record. Resuming from that
// journal must end with the same global coverage map as the uninterrupted
// campaign — the cut trial runs again and re-discovers what its orphaned
// record named.
func TestCoverageResumeAfterKillMatchesStraight(t *testing.T) {
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from corpus")
	}
	dir := t.TempDir()
	cfg := Config{App: app, Trials: 40, Workers: 1, BaseSeed: 31,
		Coverage: true, MinimizeTrials: -1,
		CheckpointPath: filepath.Join(dir, "straight.jsonl")}
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	cut, seen := -1, 0
	for i, l := range lines {
		if bytes.Contains(l, []byte(`"type":"coverage"`)) {
			if seen++; seen == 3 {
				cut = i + 1
				break
			}
		}
	}
	if cut < 0 {
		t.Fatal("campaign journaled fewer than three coverage records")
	}
	cfg.CheckpointPath = filepath.Join(dir, "killed.jsonl")
	if err := os.WriteFile(cfg.CheckpointPath, bytes.Join(lines[:cut], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Done != cfg.Trials {
		t.Fatalf("resumed campaign did not finish: %+v", resumed)
	}
	if resumed.CoveragePairs != straight.CoveragePairs || resumed.CoverageDigests != straight.CoverageDigests ||
		resumed.CoverageTuples != straight.CoverageTuples {
		t.Fatalf("coverage after kill+resume %d/%d/%d, straight through %d/%d/%d",
			resumed.CoveragePairs, resumed.CoverageDigests, resumed.CoverageTuples,
			straight.CoveragePairs, straight.CoverageDigests, straight.CoverageTuples)
	}
}

// TestCampaignResumePreCoverageJournal is the backward-compat gate: a
// journal written before coverage feedback existed (no "coverage" records,
// no new_coverage fields — the committed fixture) must resume cleanly with
// coverage enabled, starting the coverage map empty.
func TestCampaignResumePreCoverageJournal(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "precoverage_sio.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(path)
	if err != nil {
		t.Fatalf("pre-coverage fixture must load: %v", err)
	}
	if len(st.Trials) == 0 {
		t.Fatal("fixture journal holds no trials; regenerate it")
	}
	if len(st.Coverage) != 0 {
		t.Fatal("fixture journal is not pre-coverage; regenerate it without -coverage")
	}
	app := bugs.ByAbbr("SIO")
	if app == nil {
		t.Fatal("SIO missing from corpus")
	}
	res, err := Run(Config{App: app, Trials: len(st.Trials) + 8, Workers: 2,
		BaseSeed: 11, Coverage: true,
		CheckpointPath: path, Resume: true, MinimizeTrials: -1})
	if err != nil {
		t.Fatalf("resume from pre-coverage journal with coverage on: %v", err)
	}
	if res.Resumed != len(st.Trials) || res.Done != res.Trials {
		t.Fatalf("pre-coverage resume: %+v", res)
	}
	// The new trials run greybox: they populate the coverage map from zero.
	if res.CoverageDigests == 0 {
		t.Fatalf("no coverage discovered by post-upgrade trials: %+v", res)
	}
}

func TestCampaignConfigErrors(t *testing.T) {
	if _, err := Run(Config{Trials: 1}); err == nil {
		t.Error("nil App must error")
	}
	app := newFakeApp(nil, nil)
	if _, err := Run(Config{App: app}); err == nil {
		t.Error("zero Trials must error")
	}
	if _, err := Run(Config{App: app, Trials: 1, Fixed: true}); err == nil {
		t.Error("Fixed without RunFixed must error")
	}
}

// TestCampaignParallelThroughput is the executor's acceptance check:
// workers=4 must at least double trial throughput over workers=1. Each
// trial of the fake app sleeps for a fixed wall time, so the check measures
// the executor's parallelism rather than the host's core count (virtual
// corpus trials are CPU-bound).
func TestCampaignParallelThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark; skipped in -short")
	}
	app := &bugs.App{
		Abbr: "SLEEP",
		Run: func(cfg bugs.RunConfig) bugs.Outcome {
			time.Sleep(20 * time.Millisecond)
			return bugs.Outcome{}
		},
	}
	const trials = 16
	elapsed := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Run(Config{App: app, Trials: trials, Workers: workers,
			BaseSeed: 11, MinimizeTrials: -1}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq := elapsed(1)
	par := elapsed(4)
	t.Logf("workers=1: %v, workers=4: %v (%.1fx)", seq, par, float64(seq)/float64(par))
	if par*2 > seq {
		t.Errorf("workers=4 did not reach 2x throughput: sequential %v, parallel %v", seq, par)
	}
}

// TestCampaignFinishReleasesArenas: a finished campaign leaves nothing of
// its worlds running — no network engine, pool worker or node loop. Both a
// single-loop world (SIO) and a cluster world (REP-elect, whose node loops
// the arena keeps between trials) are checked, for every worker.
func TestCampaignFinishReleasesArenas(t *testing.T) {
	for _, abbr := range []string{"SIO", "REP-elect"} {
		before := runtime.NumGoroutine()
		_, err := Run(Config{App: bugs.ByAbbr(abbr), Trials: 6, Workers: 2, BaseSeed: 3,
			Coverage: true, MinimizeTrials: -1})
		if err != nil {
			t.Fatal(err)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%s: %d goroutines running after Run, %d before", abbr, after, before)
		}
	}
}

// settledGoroutines waits briefly for the goroutine count to fall back to
// want (an exiting goroutine is still counted just after its last Done) and
// returns the count it settled on.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestResumeRestoresCoverageAdmissions: a schedule that entered the corpus
// on coverage alone, below the novelty threshold, must still be in the
// corpus after a resume. Otherwise every later novelty score, and so every
// later admission, differs from the uninterrupted campaign's.
func TestResumeRestoresCoverageAdmissions(t *testing.T) {
	app := bugs.ByAbbr("KUE")
	if app == nil {
		t.Fatal("KUE missing from corpus")
	}
	dir := t.TempDir()
	// The seed a 3-app fleet with seed 7 gives its KUE campaign; its trial
	// 44 is admitted by coverage at novelty 0.125.
	cfg := Config{App: app, Trials: 60, Workers: 1, BaseSeed: TrialSeed(7^0x666c656574, 1),
		Coverage: true, MinimizeTrials: -1, CheckpointPath: filepath.Join(dir, "straight.jsonl")}
	straight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := LoadJournal(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 45
	coverageOnly := false
	for _, e := range st.Trials {
		if e.Trial < cut && e.Trial > 0 && e.Admitted && e.Novelty <= DefaultNoveltyThreshold {
			coverageOnly = true
		}
	}
	if !coverageOnly {
		t.Fatalf("fixture: no coverage-only admission before trial %d; pick another seed", cut)
	}

	cfg.CheckpointPath = filepath.Join(dir, "resumed.jsonl")
	cfg.Trials = cut
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Trials, cfg.Resume = 60, true
	resumed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CorpusLen != straight.CorpusLen {
		t.Fatalf("corpus after resume %d, straight through %d", resumed.CorpusLen, straight.CorpusLen)
	}
	rt, err := LoadJournal(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range st.Trials {
		got := rt.Trials[i]
		got.ElapsedMS, want.ElapsedMS = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d after resume:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
