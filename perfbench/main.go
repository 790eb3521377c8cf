// Command perfbench is the repository's benchmark. It runs one workload
// through the public campaign and fleet APIs, exactly as fzcampaign and
// fzfleet run them with -virtual-time -coverage and one worker, checks the
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the benchmark replays an untraced run's trial stream with
// probes around each layer and reports the per-layer metrics and a cost
// table. Usage:
//
//	go run . --workload campaign-sio --seed 1 --seconds 10 --trace 0
//
// run from the repository root (perfbench/run.sh builds and runs it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed the benchmark runs without --seed. README.md
// also names a held-out seed, kept aside so a claimed gain can be confirmed
// on a seed nobody tuned against.
const defaultSeed = 1

// workRoot, relative to the repository root, holds each run's journals;
// the run removes its own directory under it before exiting.
const workRoot = ".bench_build/work"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSpec names one reported metric and its unit; BENCHMARK.json lists
// the same names and units.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"trials_per_s", "1/s"},
	{"trial_us_p50", "us"},
	{"trial_us_p99", "us"},
	{"setup_s", "s"},
	{"manifest_frac", "frac"},
	{"max_rss_mb", "MiB"},
	{"trials_to_all_found", "trials"},
	{"variants_found", "count"},
}

var perLayer = []metricSpec{
	{"campaign.admit_us", "us"},
	{"campaign.admit_share", "frac"},
	{"campaign.sched_len", "count"},
	{"campaign.admitted_frac", "frac"},
	{"campaign.bandit_us", "us"},
	{"campaign.journal_append_us", "us"},
	{"campaign.journal_bytes_per_trial", "B"},
	{"campaign.minimize_replays", "count"},
	{"campaign.minimize_ms", "ms"},
	{"fleet.step_us_per_trial", "us"},
	{"fleet.slices", "count"},
	{"bugs.arena_begin_us", "us"},
	{"bugs.app_run_us", "us"},
	{"bugs.app_run_self_us", "us"},
	{"core.decisions_per_trial", "count"},
	{"core.decide_us_per_trial", "us"},
	{"core.shuffle_ns_p50", "ns"},
	{"sched.records_per_trial", "count"},
	{"sched.record_us_per_trial", "us"},
	{"eventloop.callbacks_per_trial", "count"},
	{"eventloop.iterations_per_trial", "count"},
	{"eventloop.events_deferred_per_trial", "count"},
	{"pool.tasks_per_trial", "count"},
	{"vclock.virtual_ms_per_trial", "ms"},
	{"vclock.host_us_per_virtual_ms", "us/ms"},
	{"vclock.handoffs_per_trial", "count"},
	{"vclock.wait_us_per_trial", "us"},
	{"vclock.self_us_per_trial", "us"},
	{"simnet.deliveries_per_trial", "count"},
	{"oracle.units_per_trial", "count"},
	{"oracle.reports_per_trial", "count"},
	{"oracle.coverage_us", "us"},
	{"runtime.allocs_per_trial", "count"},
	{"runtime.bytes_per_trial", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace.trial_us_p50", "us"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_share", "frac"},
}

// main pins GOMAXPROCS to 1. A virtual-time trial runs one participant at
// a time, so a one-worker campaign uses one core; with more Ps the loop,
// pool and network goroutines hand the run token across threads, and what
// that costs varied by ±13% between back-to-back processes (±2% with one
// P). Trials/s is therefore measured per core.
func main() {
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: campaign-sio | campaign-rep | fleet-corpus")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every campaign and fleet seed derives from it")
	seconds := fs.Float64("seconds", 25, "run length in seconds: sizes the untraced run, bounds the traced replays")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced replay")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (campaign-sio|campaign-rep|fleet-corpus), --seconds > 0, --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintln(stdout, recordHost())
	fmt.Fprintf(stdout, "workload %s seed %d trace %d\n", w.name, *seed, *trace)
	var res *result
	if *trace == 1 {
		deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
		res, err = traced(stdout, w, *seed, deadline, dir)
	} else {
		res, err = timed(stdout, w, *seed, *seconds, dir)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// checks collects the run's correctness checks, printing each.
type checks struct {
	out io.Writer
	ok  bool
}

func (c *checks) check(pass bool, format string, args ...any) {
	status := "ok  "
	if !pass {
		status = "FAIL"
		c.ok = false
	}
	fmt.Fprintf(c.out, "check %s %s\n", status, fmt.Sprintf(format, args...))
}

// knownPatchedDefects are patched variants whose check fails at the commit
// that introduced the benchmark: the run prints their counts every time
// but does not gate on them, so the defect stays visible until the program
// is fixed. Keyed by app, valued by which count is exempt.
var knownPatchedDefects = map[string]string{
	// The detector's teardown can empty the socket list before the fast
	// socket's destroy runs, which then writes `closed` unordered with the
	// slow socket's read: ~2.5% of fuzzed trials report an atomicity race.
	"SIO": "oracle",
	// ~0.7% of fuzzed trials of the patched variant still manifest.
	"SIO-novel": "manifest",
}

// checkPatched runs a short untimed pass of the workload's patched variants:
// no trial may manifest and none may draw an oracle report.
func checkPatched(c *checks, w *workload, seed int64, dir string) error {
	u, err := w.runUnit(seed, 0, dir, unitOpts{fixed: true})
	if err != nil {
		return err
	}
	for _, app := range w.apps() {
		n := u.perApp[app.Abbr]
		switch known := knownPatchedDefects[app.Abbr]; {
		case known == "oracle":
			c.check(n.manifested == 0, "patched %s: %d/%d trials manifested", app.Abbr, n.manifested, n.done)
			fmt.Fprintf(c.out, "known defect, not gated: patched %s drew oracle reports in %d/%d trials\n", app.Abbr, n.violating, n.done)
		case known == "manifest":
			c.check(n.violating == 0, "patched %s: %d/%d trials drew oracle reports", app.Abbr, n.violating, n.done)
			fmt.Fprintf(c.out, "known defect, not gated: patched %s manifested in %d/%d trials\n", app.Abbr, n.manifested, n.done)
		default:
			c.check(n.manifested == 0 && n.violating == 0, "patched %s: %d/%d trials manifested, %d drew oracle reports",
				app.Abbr, n.manifested, n.done, n.violating)
		}
	}
	return nil
}

// sameOutcome reports whether two runs of one unit seed agree on every
// exact figure; virtual time makes them a pure function of the seed.
func sameOutcome(a, b *unitResult) bool {
	if a.manifested != b.manifested || a.allFound != b.allFound || len(a.perApp) != len(b.perApp) {
		return false
	}
	for k, v := range a.perApp {
		if b.perApp[k] != v {
			return false
		}
	}
	return true
}

// timed is the untraced run. It runs the workload's units for a run of the
// given length, then repeats the first unit, which must reproduce its exact
// figures.
func timed(out io.Writer, w *workload, seed int64, seconds float64, dir string) (*result, error) {
	c := &checks{out: out, ok: true}
	if err := checkPatched(c, w, seed, dir); err != nil {
		return nil, err
	}
	var distinct []*unitResult
	for k := 0; k < w.unitsFor(seconds); k++ {
		u, err := w.runUnit(seed, k, dir, unitOpts{})
		if err != nil {
			return nil, err
		}
		distinct = append(distinct, u)
	}
	again, err := w.runUnit(seed, 0, dir, unitOpts{})
	if err != nil {
		return nil, err
	}
	all := append(distinct[:len(distinct):len(distinct)], again)
	c.check(sameOutcome(distinct[0], again), "a repeat of the first unit reproduced its manifestations and trials_to_all_found exactly")

	res := &result{Metrics: map[string]metricValue{}}
	var setup []float64
	incomplete := 0
	for _, u := range all {
		setup = append(setup, u.setup...)
		res.Attempted += u.budget
		res.Failed += u.budget - u.completed
		if u.completed != u.budget {
			incomplete++
		}
	}
	c.check(incomplete == 0, "%d/%d units completed exactly their trial budget", len(all)-incomplete, len(all))

	// The timing metrics come from the units of the slowest quarter of the
	// run's windows of consecutive units. The host alternates, over seconds
	// to minutes, between phases in which the same trials run up to 1.6x
	// apart; a whole-run figure follows the mix of phases the run happened
	// to see, while the slow phase recurs in nearly every run.
	//
	// The p99 is each unit's own, as a median over the units: pooled, it
	// would sit where rare heavy steps (a fleet's extra REP slices, a
	// campaign's minimization) happen to number about 1% of the samples.
	slow := slowestQuarter(all, w.window)
	var gaps, p99s []float64
	for _, u := range slow {
		gaps = append(gaps, u.gaps...)
		p99s = append(p99s, percentile(u.gaps, 99))
	}

	manifested, completed := 0, 0
	variants := math.MaxInt
	var allFound []float64
	perApp := map[string]appCount{}
	for _, u := range distinct {
		manifested += u.manifested
		completed += u.completed
		variants = min(variants, u.variantsFound())
		found := u.allFound
		if found == 0 {
			found = u.budget + 1 // not within the budget
		}
		allFound = append(allFound, float64(found))
		for k, v := range u.perApp {
			p := perApp[k]
			perApp[k] = appCount{p.done + v.done, p.manifested + v.manifested, p.violating + v.violating}
		}
	}
	toAll := median(allFound)
	if !w.fleet {
		// One campaign per app, so no global count exists: estimate the
		// trials to each app's first manifestation from its campaign's
		// manifestation rate, and sum over the apps.
		toAll = 0
		for _, p := range perApp {
			toAll += float64(p.done) / float64(max(p.manifested, 1))
		}
	}
	put := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)}
	}
	put("trials_per_s", rate(slow))
	put("trial_us_p50", median(gaps))
	put("trial_us_p99", median(p99s))
	put("setup_s", median(setup))
	put("manifest_frac", float64(manifested)/float64(completed))
	put("max_rss_mb", maxRSSMB())
	put("trials_to_all_found", toAll)
	put("variants_found", float64(variants))
	res.Correct = c.ok

	fmt.Fprintf(out, "units: %d and a repeat, timings from %d of them; trial samples n=%d, p99 from units of %d; setup samples n=%d\n",
		len(distinct), len(slow), len(gaps), len(slow[0].gaps), len(setup))
	fmt.Fprintf(out, "throughput (trials/s): timed units %.0f, whole run %.0f\n", rate(slow), rate(all))
	printMetrics(out, endToEnd, res.Metrics)
	return res, nil
}

func rate(units []*unitResult) float64 {
	var busy time.Duration
	trials := 0
	for _, u := range units {
		busy += u.busy
		trials += u.busyTrials
	}
	return float64(trials) / busy.Seconds()
}

// slowestQuarter cuts units, in run order, into windows of the given size
// (the last one may be short) and returns the units of the slowest quarter
// of the windows (at least one), ranked by pooled throughput. Size 0 makes
// the whole run one window.
func slowestQuarter(units []*unitResult, size int) []*unitResult {
	if size == 0 {
		return units
	}
	var windows [][]*unitResult
	for i := 0; i < len(units); i += size {
		windows = append(windows, units[i:min(i+size, len(units))])
	}
	sort.SliceStable(windows, func(i, j int) bool { return rate(windows[i]) < rate(windows[j]) })
	var out []*unitResult
	for _, win := range windows[:max(1, len(windows)/4)] {
		out = append(out, win...)
	}
	return out
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.name == name {
			return s.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

func printMetrics(out io.Writer, specs []metricSpec, m map[string]metricValue) {
	for _, s := range specs {
		fmt.Fprintf(out, "metric %-38s %14.6g %s\n", s.name, m[s.name].Value, s.unit)
	}
}
