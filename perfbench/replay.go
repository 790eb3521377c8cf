package main

import (
	"fmt"
	"os"
	"path/filepath"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/core"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// The traced run replays an untraced run's trial stream. For every journaled
// trial it takes the seed and arm and drives the path campaign.runTrial
// drives — Arena.Begin, App.Run, Tracker.Coverage, Corpus.AdmitWithCoverage,
// the bandit update, the journal append, and the first manifesting trial's
// minimization — with the probes installed and each call timed from here.
// Every replayed trial must reproduce the journaled arm, Manifested bit,
// schedule digest and admission decision, or the traced run fails.

// layerTotals accumulates the traced run's figures over replayed trials.
// Durations are nanoseconds.
type layerTotals struct {
	trials, journaled int

	step, admit, bandit, journal, minimize, coverage int64
	arenaBegin, appRun, decide, record, clockSelf    int64
	clockWait                                        int64

	decisions, records, handoffs, deliveries int64
	callbacks, iterations, deferred, tasks   int64
	virtualNS, units, reports                int64
	schedLen, admitted, minReplays           int64
	journalBytes                             int64

	stepUS    []float64
	shuffleNS []float64
}

// replayWorld is one campaign's replay state: the collaborators a campaign
// worker pins across trials, wrapped in the probes.
type replayWorld struct {
	camp   campRecord
	arms   []campaign.Arm
	corpus *campaign.Corpus
	bandit *campaign.UCB

	arena     *bugs.Arena
	inner     *core.Scheduler
	sp        *schedProbe
	recording *core.RecordingScheduler
	types     *sched.Recorder
	rp        *recorderProbe
	tracker   *oracle.Tracker
	clkBase   vclock.Clock
	cp        *clockProbe

	journal      *campaign.Journal
	journalPath  string
	minimizeLeft int
}

func newReplayWorld(c campRecord, dir string, idx int) (*replayWorld, error) {
	w := &replayWorld{
		camp: c,
		arms: campaign.DefaultArms(),
		corpus: campaign.NewCorpus(campaign.DefaultNoveltyThreshold,
			campaign.DefaultCorpusCapacity, campaign.DefaultScheduleTruncate),
		arena: bugs.NewArena(true),
	}
	w.bandit = campaign.NewUCB(len(w.arms), c.baseSeed)
	if c.minimize {
		w.minimizeLeft = campaign.DefaultMinimizeTrials
	}
	if c.journaled {
		w.journalPath = filepath.Join(dir, fmt.Sprintf("%02d-%s.jsonl", idx, c.app.Abbr))
		var err error
		if w.journal, err = campaign.OpenJournal(w.journalPath, true); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// virtualRun is the campaign's trial function under virtual time:
// minimization replays get a fresh virtual clock each.
func virtualRun(app *bugs.App) func(bugs.RunConfig) bugs.Outcome {
	return func(rc bugs.RunConfig) bugs.Outcome {
		if rc.Clock == nil {
			rc.Clock = vclock.NewVirtual()
		}
		return app.Run(rc)
	}
}

func runSafely(run func(bugs.RunConfig) bugs.Outcome, rc bugs.RunConfig) (out bugs.Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("trial panic: %v", r)
		}
	}()
	return run(rc), nil
}

// trial replays one journaled trial and reports a mismatch, if any.
func (w *replayWorld) trial(e campaign.TrialEntry, t *layerTotals) error {
	tStep := mono()

	t0 := mono()
	arm := w.bandit.Select()
	t.bandit += mono() - t0
	if arm != e.Arm {
		return fmt.Errorf("arm %d, journaled %d", arm, e.Arm)
	}
	params := w.arms[arm].Params
	if w.inner == nil {
		w.inner = core.NewScheduler(params, e.Seed)
		w.sp = newSchedProbe(w.inner)
		w.recording = core.NewRecording(w.sp)
		w.types = sched.NewRecorder()
		w.rp = &recorderProbe{inner: w.types}
		w.tracker = oracle.New()
	} else {
		w.inner.Reseed(params, e.Seed)
		w.recording.Reset()
		w.types.Reset()
		w.tracker.Reset()
	}
	rc := bugs.RunConfig{Seed: e.Seed, Scheduler: w.recording, Recorder: w.rp, Oracle: w.tracker}

	t0 = mono()
	rc = w.arena.Begin(rc)
	t.arenaBegin += mono() - t0
	// A new clock from Begin means the arena rebuilds the world from
	// scratch this trial (a multi-loop trial discards it every time): the
	// fresh build then constructs every loop, pool and network on the
	// probe. A resident world keeps the probe it was built on.
	if rc.Clock != w.clkBase {
		w.clkBase = rc.Clock
		w.cp = &clockProbe{inner: rc.Clock}
	}
	rc.Clock = w.cp
	// The arena stamps a *sched.Recorder with the trial clock; the probe
	// hides the type, so stamp it here.
	w.types.Now = w.clkBase.Now
	epochV := w.clkBase.Now()
	sp0, rp0 := w.sp.ns.Load(), w.rp.ns.Load()
	dec0, rec0, del0 := w.sp.decisions.Load(), w.rp.records.Load(), w.sp.deliveries.Load()
	cs0, cw0, ch0 := w.cp.selfNS.Load(), w.cp.waitNS.Load(), w.cp.handoffs.Load()

	t0 = mono()
	out, err := runSafely(w.camp.app.Run, rc)
	t.appRun += mono() - t0
	if err != nil {
		w.arena.Discard()
		w.inner = nil
		return err
	}
	t.virtualNS += int64(w.clkBase.Now().Sub(epochV))
	t.decide += w.sp.ns.Load() - sp0
	t.record += w.rp.ns.Load() - rp0
	t.decisions += w.sp.decisions.Load() - dec0
	t.records += w.rp.records.Load() - rec0
	t.deliveries += w.sp.deliveries.Load() - del0
	t.clockSelf += w.cp.selfNS.Load() - cs0
	t.clockWait += w.cp.waitNS.Load() - cw0
	t.handoffs += w.cp.handoffs.Load() - ch0
	t.shuffleNS = append(t.shuffleNS, w.sp.takeShuffles()...)
	if reg := w.arena.Registry(); reg != nil {
		t.callbacks += reg.Gauge("loop.callbacks").Value()
		t.iterations += reg.Gauge("loop.iterations").Value()
		t.deferred += reg.Gauge("loop.events_deferred").Value()
		t.tasks += reg.Counter("pool.tasks_executed").Value()
	}
	t.units += int64(w.tracker.Units())

	all := w.types.Types()
	t.schedLen += int64(len(all))
	types := sched.Truncate(all, campaign.DefaultScheduleTruncate)
	t0 = mono()
	cov := w.tracker.Coverage()
	t.coverage += mono() - t0
	t0 = mono()
	adm := w.corpus.AdmitWithCoverage(types, &cov)
	t.admit += mono() - t0
	t.reports += int64(len(w.tracker.Reports()))
	t0 = mono()
	w.bandit.Update(arm, e.Reward)
	t.bandit += mono() - t0
	if adm.Admitted {
		t.admitted++
	}

	var mismatch error
	digest := sched.DigestString(sched.Digest(types))
	switch {
	case out.Manifested != e.Manifested:
		mismatch = fmt.Errorf("manifested %v, journaled %v", out.Manifested, e.Manifested)
	case digest != e.Digest:
		mismatch = fmt.Errorf("schedule digest %s, journaled %s", digest, e.Digest)
	case adm.Admitted != e.Admitted:
		mismatch = fmt.Errorf("admitted %v, journaled %v", adm.Admitted, e.Admitted)
	}

	if out.Manifested && w.minimizeLeft > 0 {
		w.minimizeLeft--
		t0 = mono()
		m := campaign.MinimizeTrace(virtualRun(w.camp.app), e.Seed, w.recording.Trace(), campaign.DefaultMinimizeBudget)
		t.minimize += mono() - t0
		t.minReplays += int64(m.Replays)
		if mismatch == nil && (len(w.camp.minimized) == 0 || w.camp.minimized[0].Trial != e.Trial ||
			w.camp.minimized[0].Replays != m.Replays) {
			mismatch = fmt.Errorf("minimization took %d replays, not as journaled", m.Replays)
		}
	}

	if w.journal != nil {
		t0 = mono()
		err := w.journal.Append(e)
		if err == nil && (len(adm.NewPairs) > 0 || adm.NewHB || len(adm.NewTuples) > 0) {
			ce := campaign.CoverageEntry{Type: "coverage", Trial: e.Trial, Pairs: adm.NewPairs, Tuples: adm.NewTuples}
			if adm.NewHB {
				ce.HBDigest = cov.HBDigest
			}
			err = w.journal.Append(ce)
		}
		t.journal += mono() - t0
		t.journaled++
		if err != nil {
			return err
		}
	}

	d := mono() - tStep
	t.step += d
	t.stepUS = append(t.stepUS, float64(d)/1e3)
	t.trials++
	return mismatch
}

// close drops the world's arena and releases its journal, adding its size
// to t. Dropping the arena unregisters its resident loop, which the bugs
// package would otherwise keep alive for the rest of the process.
func (w *replayWorld) close(t *layerTotals) error {
	w.arena.Discard()
	if w.journal == nil {
		return nil
	}
	if err := w.journal.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(w.journalPath)
	if err != nil {
		return err
	}
	t.journalBytes += fi.Size()
	return nil
}

// replayUnit replays u's whole trial stream into t. It returns the number of
// trials that did not reproduce, with the first mismatch described.
func replayUnit(u *unitResult, workDir string, t *layerTotals) (failed int, first string, err error) {
	dir, err := os.MkdirTemp(workDir, "replay-")
	if err != nil {
		return 0, "", err
	}
	defer os.RemoveAll(dir)
	worlds := make([]*replayWorld, len(u.camps))
	defer func() {
		for _, w := range worlds {
			if w != nil {
				if cerr := w.close(t); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	}()
	for _, st := range u.stream {
		w := worlds[st.camp]
		if w == nil {
			if w, err = newReplayWorld(u.camps[st.camp], dir, st.camp); err != nil {
				return failed, first, err
			}
			worlds[st.camp] = w
		}
		if merr := w.trial(st.entry, t); merr != nil {
			failed++
			if first == "" {
				first = fmt.Sprintf("%s trial %d: %v", w.camp.app.Abbr, st.entry.Trial, merr)
			}
		}
	}
	return failed, first, nil
}
