package harness

import (
	"fmt"
	"io"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/eventloop"
)

// ExploreResult summarizes a systematic (delay-bounded) search.
type ExploreResult struct {
	Bug string
	// Points is the number of decision points in the perturbation-free run.
	Points int
	// Runs is how many executions the search used.
	Runs int
	// Manifested reports whether any schedule triggered the bug.
	Manifested bool
	// Vector is the set of perturbed decision points of the first
	// manifesting run (nil when the zero-delay run manifested).
	Vector []int
	// Note is the detector's description from the manifesting run.
	Note string
}

// Explore performs the delay-bounded systematic search §6 points at: first
// a perturbation-free run (delay bound 0) to count decision points, then
// every single-point perturbation, then pairs in lexicographic order,
// until the bug manifests or maxRuns executions have been spent. Decision
// points beyond maxPoints are not enumerated (long tails add little).
//
// The search is systematic over scheduler decisions; as with everything in
// this repository, wall-clock timing still varies between runs, so the
// enumeration is a guided walk rather than an exhaustive proof.
func Explore(app *bugs.App, seed int64, maxPoints, maxRuns int) ExploreResult {
	res := ExploreResult{Bug: app.Abbr}
	// The budget bounds *every* execution, including the baseline: a
	// non-positive budget spends no runs at all, and res.Runs never exceeds
	// maxRuns even when the budget runs out mid-way through the pairs stage.
	budget := func() bool { return res.Runs < maxRuns }
	if !budget() {
		return res
	}

	tryVector := func(vec []int) (*core.SystematicScheduler, bugs.Outcome) {
		s := core.NewSystematic(vec)
		out := app.Run(bugs.RunConfig{Seed: seed, Scheduler: eventloop.Scheduler(s), Clock: trialClock()})
		res.Runs++
		return s, out
	}

	// Delay bound 0: the baseline run also measures the decision-point
	// count.
	s, out := tryVector(nil)
	res.Points = s.Points()
	if out.Manifested {
		res.Manifested = true
		res.Note = out.Note
		return res
	}
	n := res.Points
	if n > maxPoints {
		n = maxPoints
	}

	// Delay bound 1.
	for p := 0; p < n && budget(); p++ {
		if _, out := tryVector([]int{p}); out.Manifested {
			res.Manifested = true
			res.Vector = []int{p}
			res.Note = out.Note
			return res
		}
	}

	// Delay bound 2. The budget check sits on the inner loop so exhaustion
	// mid-pair stops immediately instead of finishing the current a-row.
	for a := 0; a < n && budget(); a++ {
		for b := a + 1; b < n && budget(); b++ {
			if _, out := tryVector([]int{a, b}); out.Manifested {
				res.Manifested = true
				res.Vector = []int{a, b}
				res.Note = out.Note
				return res
			}
		}
	}
	return res
}

// WriteExplore renders the result.
func WriteExplore(w io.Writer, res ExploreResult) {
	fmt.Fprintf(w, "Systematic exploration of %s: %d decision points, %d runs\n",
		res.Bug, res.Points, res.Runs)
	if !res.Manifested {
		fmt.Fprintf(w, "no manifestation within the delay bound\n")
		return
	}
	if res.Vector == nil {
		fmt.Fprintf(w, "manifested with no perturbation at all: %s\n", res.Note)
		return
	}
	fmt.Fprintf(w, "manifested with delays at decision points %v: %s\n", res.Vector, res.Note)
}
