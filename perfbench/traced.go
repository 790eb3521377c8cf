package main

import (
	"fmt"
	"io"
	"time"
)

// traced is the traced run: one untraced reference pass of the workload's
// first unit, recording its trial stream and the runtime's allocation and
// GC counters, then replays of that stream with the probes installed, until
// the deadline (at least one). Every replay must reproduce every trial.
func traced(out io.Writer, w *workload, seed int64, deadline time.Time, dir string) (*result, error) {
	c := &checks{out: out, ok: true}
	if err := checkPatched(c, w, seed, dir); err != nil {
		return nil, err
	}
	r0 := sampleRuntime()
	ref, err := w.runUnit(seed, 0, dir, unitOpts{record: true})
	if err != nil {
		return nil, err
	}
	r1 := sampleRuntime()
	c.check(ref.completed == ref.budget && len(ref.stream) == ref.completed,
		"reference pass completed %d/%d trials, %d in its stream", ref.completed, ref.budget, len(ref.stream))

	res := &result{Metrics: map[string]metricValue{}}
	var t layerTotals
	replays := 0
	for replays == 0 || time.Now().Before(deadline) {
		failed, first, err := replayUnit(ref, dir, &t)
		if err != nil {
			return nil, err
		}
		replays++
		res.Attempted += len(ref.stream)
		res.Failed += failed
		if failed > 0 {
			fmt.Fprintf(out, "replay %d: %d trials did not reproduce; first: %s\n", replays, failed, first)
		}
	}
	c.check(res.Failed == 0, "%d/%d replayed trials reproduced arm, manifestation, schedule digest and admission",
		res.Attempted-res.Failed, res.Attempted)
	if t.trials == 0 {
		return nil, fmt.Errorf("traced run replayed no trial")
	}

	// The untraced fleet samples step time per slice, so compare like with
	// like.
	tracedUS := t.stepUS
	if len(ref.sliceRan) > 0 {
		tracedUS = perSlice(t.stepUS, ref.sliceRan)
	}
	n := float64(t.trials)
	perTrialUS := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	per := func(v int64) float64 { return float64(v) / n }
	share := func(ns int64) float64 { return float64(ns) / float64(t.step) }
	appSelf := t.appRun - t.decide - t.record - t.clockSelf
	rows := []costRow{
		{"campaign.admit", t.admit},
		{"campaign.bandit", t.bandit},
		{"campaign.journal", t.journal},
		{"campaign.minimize", t.minimize},
		{"oracle.coverage", t.coverage},
		{"bugs.arena_begin", t.arenaBegin},
		{"bugs.app_run_self", appSelf},
		{"core.decide", t.decide},
		{"sched.record", t.record},
		{"vclock.self", t.clockSelf},
	}
	unattributed := t.step
	for _, r := range rows {
		unattributed -= r.ns
	}
	rows = append(rows, costRow{"unattributed", unattributed})

	m := map[string]float64{
		"campaign.admit_us":                   perTrialUS(t.admit),
		"campaign.admit_share":                share(t.admit),
		"campaign.sched_len":                  per(t.schedLen),
		"campaign.admitted_frac":              per(t.admitted),
		"campaign.bandit_us":                  perTrialUS(t.bandit),
		"campaign.journal_append_us":          0,
		"campaign.journal_bytes_per_trial":    0,
		"campaign.minimize_replays":           float64(t.minReplays) / float64(replays),
		"campaign.minimize_ms":                float64(t.minimize) / 1e6 / float64(replays),
		"fleet.step_us_per_trial":             0,
		"fleet.slices":                        float64(ref.slices),
		"bugs.arena_begin_us":                 perTrialUS(t.arenaBegin),
		"bugs.app_run_us":                     perTrialUS(t.appRun),
		"bugs.app_run_self_us":                perTrialUS(appSelf),
		"core.decisions_per_trial":            per(t.decisions),
		"core.decide_us_per_trial":            perTrialUS(t.decide),
		"core.shuffle_ns_p50":                 median(t.shuffleNS),
		"sched.records_per_trial":             per(t.records),
		"sched.record_us_per_trial":           perTrialUS(t.record),
		"eventloop.callbacks_per_trial":       per(t.callbacks),
		"eventloop.iterations_per_trial":      per(t.iterations),
		"eventloop.events_deferred_per_trial": per(t.deferred),
		"pool.tasks_per_trial":                per(t.tasks),
		"vclock.virtual_ms_per_trial":         float64(t.virtualNS) / 1e6 / n,
		"vclock.host_us_per_virtual_ms":       (float64(t.appRun) / 1e3) / (float64(t.virtualNS) / 1e6),
		"vclock.handoffs_per_trial":           per(t.handoffs),
		"vclock.wait_us_per_trial":            perTrialUS(t.clockWait),
		"vclock.self_us_per_trial":            perTrialUS(t.clockSelf),
		"simnet.deliveries_per_trial":         per(t.deliveries),
		"oracle.units_per_trial":              per(t.units),
		"oracle.reports_per_trial":            per(t.reports),
		"oracle.coverage_us":                  perTrialUS(t.coverage),
		"runtime.allocs_per_trial":            float64(r1.allocs-r0.allocs) / float64(ref.completed),
		"runtime.bytes_per_trial":             float64(r1.bytes-r0.bytes) / float64(ref.completed),
		"runtime.gc_cpu_frac":                 (r1.gcCPU - r0.gcCPU) / (r1.totalCPU - r0.totalCPU),
		"trace.trial_us_p50":                  median(tracedUS),
		"trace.overhead_frac":                 median(tracedUS)/median(ref.gaps) - 1,
		"trace.unattributed_share":            share(unattributed),
	}
	if t.journaled > 0 {
		m["campaign.journal_append_us"] = float64(t.journal) / 1e3 / float64(t.journaled)
		m["campaign.journal_bytes_per_trial"] = float64(t.journalBytes) / float64(t.journaled)
	}
	if w.fleet {
		m["fleet.step_us_per_trial"] = float64(ref.stepDur.Nanoseconds()) / 1e3 / float64(ref.completed)
	}
	for _, s := range perLayer {
		v, ok := m[s.name]
		if !ok {
			panic("perfbench: per-layer metric not computed: " + s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	res.Correct = c.ok

	fmt.Fprintf(out, "traced: %d replays of %d trials; untraced trial_us_p50 %.1f, traced %.1f\n",
		replays, len(ref.stream), median(ref.gaps), median(tracedUS))
	printCostTable(out, w.name, rows, t.step, t.trials)
	fmt.Fprintf(out, "split campaign.admit : bugs.app_run = %.1f : %.1f (of the traced step)\n",
		10*share(t.admit)/(share(t.admit)+share(t.appRun)), 10*share(t.appRun)/(share(t.admit)+share(t.appRun)))
	printMetrics(out, perLayer, res.Metrics)
	return res, nil
}

// perSlice averages consecutive per-trial times over the fleet's slices,
// in the order the replays ran them.
func perSlice(us []float64, ran []int) []float64 {
	var out []float64
	for i := 0; i < len(us); {
		for _, n := range ran {
			if i+n > len(us) {
				return out
			}
			sum := 0.0
			for _, v := range us[i : i+n] {
				sum += v
			}
			out = append(out, sum/float64(n))
			i += n
		}
	}
	return out
}

// costRow is one layer's self time summed over the traced trials.
type costRow struct {
	name string
	ns   int64
}

// printCostTable lists each layer's self time as a share of the traced
// step; the rows, unattributed remainder included, add up to the step.
func printCostTable(out io.Writer, workload string, rows []costRow, step int64, trials int) {
	fmt.Fprintf(out, "cost table %s: %d traced trials, step %.1f us/trial\n", workload, trials, float64(step)/1e3/float64(trials))
	for _, r := range rows {
		fmt.Fprintf(out, "  %-20s %10.2f us/trial %6.1f%%\n", r.name, float64(r.ns)/1e3/float64(trials), 100*float64(r.ns)/float64(step))
	}
}
