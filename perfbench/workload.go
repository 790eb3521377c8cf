package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"nodefz/internal/bugs"
	"nodefz/internal/campaign"
	"nodefz/internal/fleet"
)

// workload is one input set the benchmark runs. Every workload is closed
// loop with one executor worker: a trial starts when the previous one has
// completed. Trials run under virtual time with oracle and coverage
// feedback, the way `fzcampaign -virtual-time -coverage` and
// `fzfleet -virtual-time -coverage` run them.
type workload struct {
	name string // BENCHMARK.json records why each workload was chosen
	// apps are the bug applications, in run order. A campaign workload runs
	// one campaign per app, one after the other; the fleet workload runs
	// them all as one fleet.
	apps  func() []*bugs.App
	fleet bool
	// trials is each campaign's size, or the fleet's global budget.
	trials int
	// unitSeconds is one unit's wall time on the reference host (2-core
	// Xeon, 2.7 GHz, GOMAXPROCS=1). A unit is a campaign sequence, or a
	// fleet, with its own base seed derived from the run seed; an untraced
	// run of S seconds runs S/unitSeconds of them. The work is thus fixed
	// by seed and length, not by how fast it goes, so the exact figures —
	// and the heap the run builds up — do not move with the host's speed.
	unitSeconds float64
	// window is how many consecutive units the timing metrics rank as one
	// window (see timed); 0 makes the whole run one window. Fleets differ
	// in content enough to swamp the host's phases: a fleet's trial cost
	// moves with the share of trials its allocator gives the REP campaigns
	// (3-13%), so only a whole run averages it out.
	window int
	// patched is the number of trials of each app's patched variant the
	// correctness check runs.
	patched int
}

var workloads = []*workload{
	{
		name:        "campaign-sio",
		apps:        func() []*bugs.App { return []*bugs.App{bugs.ByAbbr("SIO")} },
		trials:      1000,
		unitSeconds: 0.3,
		window:      1,
		patched:     40,
	},
	{
		name:        "campaign-rep",
		apps:        func() []*bugs.App { return []*bugs.App{bugs.ByAbbr("REP-elect"), bugs.ByAbbr("REP-replay")} },
		trials:      150,
		unitSeconds: 2.2,
		window:      1,
		patched:     6,
	},
	{
		name:        "fleet-corpus",
		apps:        bugs.All,
		fleet:       true,
		trials:      480,
		unitSeconds: 0.36,
		window:      0,
		patched:     8,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// unitsFor is the number of units an untraced run of the given length runs.
func (w *workload) unitsFor(seconds float64) int {
	return max(1, int(math.Round(seconds/w.unitSeconds)))
}

// unitSeed is the base seed of a pass's k-th campaign (or fleet).
func unitSeed(seed int64, k int) int64 { return campaign.TrialSeed(seed, k) }

// streamTrial is one completed trial as the untraced run journaled it, in
// execution order: what the traced run replays.
type streamTrial struct {
	camp  int // index into unitResult.camps
	entry campaign.TrialEntry
}

// campRecord is one campaign of a unit: what the replay needs to rebuild
// its corpus, bandit and journal, and what it must reproduce.
type campRecord struct {
	app       *bugs.App
	baseSeed  int64
	minimize  bool // the campaign delta-debugs its first manifesting trial
	journaled bool // the campaign appends every trial to a journal
	minimized []campaign.MinimizedEntry
}

// unitResult is one campaign sequence (or one fleet) of a pass.
type unitResult struct {
	setup []float64 // seconds, construction to the first completed trial (or slice)
	// gaps are per-trial wall times in microseconds after setup: the gap
	// between consecutive Progress callbacks (per slice for the fleet,
	// divided by the trials the slice ran).
	gaps []float64
	// busyTrials trials completed in busy wall time after setup.
	busyTrials int
	busy       time.Duration

	budget, completed, manifested int
	perApp                        map[string]appCount
	// allFound is the fleet's global trial count when the last variant
	// manifested for the first time (0 when one never did).
	allFound int

	slices   int
	stepDur  time.Duration // wall time inside fleet steps
	sliceRan []int         // trials per slice, in stream order (fleet, recorded)

	camps  []campRecord
	stream []streamTrial
}

// appCount is one app's completed, manifesting and oracle-violating trials.
type appCount struct{ done, manifested, violating int }

// variantsFound counts the apps that manifested at least once.
func (u *unitResult) variantsFound() int {
	n := 0
	for _, c := range u.perApp {
		if c.manifested > 0 {
			n++
		}
	}
	return n
}

// unitOpts selects how a unit runs.
type unitOpts struct {
	fixed  bool // run the patched variants, sized by workload.patched
	record bool // keep the trial stream for the traced replay
}

// runUnit runs the workload's k-th unit for the pass seeded with seed.
// workDir holds fleet journals, each removed again before returning.
func (w *workload) runUnit(seed int64, k int, workDir string, o unitOpts) (*unitResult, error) {
	if w.fleet {
		return w.runFleet(unitSeed(seed, k), workDir, o)
	}
	return w.runCampaigns(unitSeed(seed, k), o)
}

func (w *workload) runCampaigns(seed int64, o unitOpts) (*unitResult, error) {
	u := &unitResult{perApp: map[string]appCount{}}
	trials := w.trials
	if o.fixed {
		trials = w.patched
	}
	for i, app := range w.apps() {
		ci := len(u.camps)
		var first, last time.Time
		t0 := time.Now()
		res, err := campaign.Run(campaign.Config{
			App:         app,
			Fixed:       o.fixed,
			Trials:      trials,
			Workers:     1,
			BaseSeed:    unitSeed(seed, i),
			VirtualTime: true,
			Coverage:    true,
			Progress: func(e campaign.TrialEntry) {
				now := time.Now()
				if first.IsZero() {
					first = now
				} else {
					u.gaps = append(u.gaps, float64(now.Sub(last).Nanoseconds())/1e3)
				}
				last = now
				if o.record {
					u.stream = append(u.stream, streamTrial{camp: ci, entry: e})
				}
			},
		})
		if err != nil {
			return nil, fmt.Errorf("%s campaign: %w", app.Abbr, err)
		}
		if !first.IsZero() {
			u.setup = append(u.setup, first.Sub(t0).Seconds())
			u.busy += last.Sub(first)
			u.busyTrials += res.Done - 1
		}
		u.budget += res.Trials
		u.completed += res.Done
		u.manifested += res.Manifested
		u.perApp[app.Abbr] = appCount{res.Done, res.Manifested, res.Violating}
		u.camps = append(u.camps, campRecord{
			app: app, baseSeed: unitSeed(seed, i), minimize: true, minimized: res.Minimized,
		})
	}
	return u, nil
}

// fleetSeedSalt mirrors the fleet's derivation of child campaign base
// seeds (TrialSeed(BaseSeed^salt, i)); the replay needs them to rebuild
// each child's bandit. A drift shows as a replay mismatch, not silently.
const fleetSeedSalt = 0x666c656574

func (w *workload) runFleet(seed int64, workDir string, o unitOpts) (*unitResult, error) {
	u := &unitResult{perApp: map[string]appCount{}}
	dir, err := os.MkdirTemp(workDir, "fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	apps := w.apps()
	specs := make([]fleet.Spec, len(apps))
	for i, a := range apps {
		specs[i] = fleet.Spec{App: a, Fixed: o.fixed}
	}
	budget := w.trials
	if o.fixed {
		budget = w.patched * len(apps)
	}
	found := map[string]bool{}
	var slices []fleet.SliceRecord
	var first, last time.Time
	assigned := 0
	t0 := time.Now()
	res, err := fleet.Run(fleet.Config{
		Specs:        specs,
		GlobalTrials: budget,
		Workers:      1,
		BaseSeed:     seed,
		VirtualTime:  true,
		Coverage:     true,
		Dir:          dir,
		Progress: func(r fleet.SliceRecord) {
			now := time.Now()
			if first.IsZero() {
				first = now
			} else if r.Ran > 0 {
				d := now.Sub(last)
				u.gaps = append(u.gaps, float64(d.Nanoseconds())/1e3/float64(r.Ran))
				u.busy += d
				u.busyTrials += r.Ran
			}
			last = now
			assigned += r.To - r.From
			if r.Manifested > 0 && !found[r.App] {
				found[r.App] = true
				if len(found) == len(specs) {
					u.allFound = assigned
				}
			}
			slices = append(slices, r)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if !first.IsZero() {
		u.setup = append(u.setup, first.Sub(t0).Seconds())
		u.stepDur = last.Sub(t0)
	}
	u.budget = budget
	u.slices = len(slices)
	for _, c := range res.Campaigns {
		u.completed += c.Result.Done
		u.manifested += c.Result.Manifested
		u.perApp[c.App] = appCount{c.Result.Done, c.Result.Manifested, c.Result.Violating}
	}
	if !o.record {
		return u, nil
	}

	// The trial stream comes from the child journals, in slice order.
	index := map[string]int{}
	journals := map[string]map[int]campaign.TrialEntry{}
	for i, a := range apps {
		index[a.Abbr] = i
		u.camps = append(u.camps, campRecord{
			app: a, baseSeed: campaign.TrialSeed(seed^fleetSeedSalt, i), journaled: true,
		})
		st, err := campaign.LoadJournal(filepath.Join(dir, a.Abbr+".jsonl"))
		if err != nil {
			return nil, err
		}
		journals[a.Abbr] = st.Trials
	}
	for _, r := range slices {
		if r.Ran > 0 {
			u.sliceRan = append(u.sliceRan, r.Ran)
		}
		for t := r.From; t < r.To; t++ {
			e, ok := journals[r.App][t]
			if !ok {
				return nil, fmt.Errorf("fleet: %s trial %d missing from its journal", r.App, t)
			}
			u.stream = append(u.stream, streamTrial{camp: index[r.App], entry: e})
		}
	}
	return u, nil
}
