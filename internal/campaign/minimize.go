package campaign

import (
	"fmt"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// PerturbPoint names one perturbing decision inside a recorded trace: the
// hook stream it belongs to and its index within that stream.
type PerturbPoint struct {
	Stream string `json:"stream"` // "timer" | "shuffle" | "close" | "pick" | "net"
	Index  int    `json:"index"`
}

// String renders the point compactly ("timer#4").
func (p PerturbPoint) String() string { return fmt.Sprintf("%s#%d", p.Stream, p.Index) }

// MinimizeResult is the outcome of delta-debugging one manifesting trial's
// decision trace.
type MinimizeResult struct {
	// Original is the number of perturbing decisions in the recorded trace.
	Original int `json:"original"`
	// Points is the minimized perturbation set, in stream order.
	Points []PerturbPoint `json:"points"`
	// Replays is how many executions the minimization spent.
	Replays int `json:"replays"`
	// Reproduced is true when the final minimized set was confirmed to
	// manifest the bug on replay. False means replay infidelity defeated the
	// search (the trace is returned unminimized) — possible because replay
	// is best-effort, not bit-exact.
	Reproduced bool `json:"reproduced"`
}

// Minimal is the size of the minimized set.
func (m MinimizeResult) Minimal() int { return len(m.Points) }

// perturbedPoints lists every perturbing decision in the trace.
func perturbedPoints(t *core.Trace) []PerturbPoint {
	var out []PerturbPoint
	for i, d := range t.Timers {
		if d.Perturbs() {
			out = append(out, PerturbPoint{Stream: "timer", Index: i})
		}
	}
	for i, d := range t.Shuffle {
		if !d.Identity() {
			out = append(out, PerturbPoint{Stream: "shuffle", Index: i})
		}
	}
	for i, v := range t.Close {
		if v {
			out = append(out, PerturbPoint{Stream: "close", Index: i})
		}
	}
	for i, d := range t.Pick {
		if d.Perturbs() {
			out = append(out, PerturbPoint{Stream: "pick", Index: i})
		}
	}
	for i, d := range t.Net {
		if d.Perturbs() {
			out = append(out, PerturbPoint{Stream: "net", Index: i})
		}
	}
	return out
}

// neutralized clones the trace with every perturbation NOT in keep replaced
// by its vanilla-equivalent decision, so a replay perturbs the schedule only
// at the kept points.
func neutralized(t *core.Trace, keep map[PerturbPoint]bool) *core.Trace {
	cp := t.Clone()
	for i, d := range cp.Timers {
		if d.Perturbs() && !keep[PerturbPoint{Stream: "timer", Index: i}] {
			cp.Timers[i] = d.Neutral()
		}
	}
	for i, d := range cp.Shuffle {
		if !d.Identity() && !keep[PerturbPoint{Stream: "shuffle", Index: i}] {
			cp.Shuffle[i] = d.Neutral()
		}
	}
	for i, v := range cp.Close {
		if v && !keep[PerturbPoint{Stream: "close", Index: i}] {
			cp.Close[i] = false
		}
	}
	for i, d := range cp.Pick {
		if d.Perturbs() && !keep[PerturbPoint{Stream: "pick", Index: i}] {
			cp.Pick[i] = d.Neutral()
		}
	}
	for i, d := range cp.Net {
		if d.Perturbs() && !keep[PerturbPoint{Stream: "net", Index: i}] {
			cp.Net[i] = d.Neutral()
		}
	}
	return cp
}

// MinimizeTrace delta-debugs a manifesting trial's recorded decision trace
// down to a minimal perturbation set, ddmin-style (Zeller & Hildebrandt):
// it repeatedly replays the trial with subsets of the trace's perturbations
// neutralized, keeping any smaller set that still manifests, until no chunk
// can be removed or maxReplays executions have been spent.
//
// Replays run with core.NewReplay over the no-fuzz scheduler, so decisions
// beyond the trace fall back to vanilla-equivalent behaviour instead of
// fresh randomness; the worker pool keeps the recorded arm's wait policy
// (Trace.Wait). Each replay runs on a fresh virtual clock, as campaign
// trials do. seed is the manifesting trial's seed (the substrates draw
// their latencies from it). Because replay fidelity is best-effort,
// each probe is a single execution and the result is a *small* manifesting
// set, not a proven-minimal one.
func MinimizeTrace(run func(bugs.RunConfig) bugs.Outcome, seed int64, trace *core.Trace, maxReplays int) MinimizeResult {
	if maxReplays <= 0 {
		maxReplays = DefaultMinimizeBudget
	}
	all := perturbedPoints(trace)
	res := MinimizeResult{Original: len(all)}

	test := func(points []PerturbPoint) bool {
		if res.Replays >= maxReplays {
			return false
		}
		res.Replays++
		keep := make(map[PerturbPoint]bool, len(points))
		for _, p := range points {
			keep[p] = true
		}
		s := core.NewReplay(neutralized(trace, keep), core.NewNoFuzzScheduler())
		out := run(bugs.RunConfig{Seed: seed, Scheduler: eventloop.Scheduler(s), Clock: vclock.NewVirtual()})
		return out.Manifested
	}

	// The bug may need no perturbation at all (vanilla-frequent races).
	if test(nil) {
		res.Points = nil
		res.Reproduced = true
		return res
	}
	// Sanity: the full recorded set must manifest under replay, or the
	// search has nothing trustworthy to bisect.
	if !test(all) {
		res.Points = all
		return res
	}

	cur := all
	n := 2
	for len(cur) >= 2 && res.Replays < maxReplays {
		if n > len(cur) {
			n = len(cur)
		}
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur) && res.Replays < maxReplays; start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			complement := make([]PerturbPoint, 0, len(cur)-(end-start))
			complement = append(complement, cur[:start]...)
			complement = append(complement, cur[end:]...)
			if len(complement) == 0 {
				continue // test(nil) already failed above
			}
			if test(complement) {
				cur = complement
				n = max2(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n = min2(2*n, len(cur))
		}
	}
	res.Points = cur
	res.Reproduced = true // cur was the last set test() confirmed manifesting
	return res
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
