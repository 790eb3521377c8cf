package fleet

import (
	"runtime"
	"sort"
	"testing"
	"time"

	"nodefz/internal/bugs"
)

// specsAll builds one Spec per registered bug app — the 20-campaign fleet.
func specsAll() []Spec {
	var specs []Spec
	for _, a := range bugs.All() {
		specs = append(specs, Spec{App: a})
	}
	return specs
}

func specsFor(t *testing.T, abbrs ...string) []Spec {
	t.Helper()
	var specs []Spec
	for _, a := range abbrs {
		app := bugs.ByAbbr(a)
		if app == nil {
			t.Fatalf("unknown app %s", a)
		}
		specs = append(specs, Spec{App: app})
	}
	return specs
}

// TestFleetDeterministicPerSeed runs the same fleet twice and demands an
// identical allocation trace: same campaign picked for every slice, same
// yields, same final watermarks. This is the property everything else
// (resume, the rr-vs-greedy gate) stands on.
func TestFleetDeterministicPerSeed(t *testing.T) {
	run := func() ([]SliceRecord, *Result) {
		var recs []SliceRecord
		cfg := Config{
			Specs:        specsFor(t, "SIO", "KUE", "MGS", "WPT"),
			GlobalTrials: 60,
			SliceTrials:  5,
			BaseSeed:     42,
			Oracle:       true,
			Coverage:     true,
			Progress:     func(r SliceRecord) { recs = append(recs, r) },
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return recs, res
	}
	recsA, resA := run()
	recsB, resB := run()
	if len(recsA) != len(recsB) {
		t.Fatalf("slice counts differ: %d vs %d", len(recsA), len(recsB))
	}
	for i := range recsA {
		if recsA[i] != recsB[i] {
			t.Fatalf("slice %d differs:\n%+v\n%+v", i, recsA[i], recsB[i])
		}
	}
	for i := range resA.Campaigns {
		a, b := resA.Campaigns[i], resB.Campaigns[i]
		if a.Cursor != b.Cursor || a.Slices != b.Slices || a.Yield != b.Yield ||
			a.Result.Done != b.Result.Done || a.Result.CorpusLen != b.Result.CorpusLen {
			t.Fatalf("campaign %s diverged:\n%+v\n%+v", a.App, a, b)
		}
	}
}

// TestFleetBudgetAccounting checks the global budget is exhausted exactly
// and no campaign exceeds its cap.
func TestFleetBudgetAccounting(t *testing.T) {
	cfg := Config{
		Specs:          specsFor(t, "SIO", "KUE", "MGS"),
		GlobalTrials:   47, // deliberately not a multiple of the slice size
		CampaignTrials: 20,
		SliceTrials:    5,
		BaseSeed:       3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assigned > cfg.GlobalTrials {
		t.Fatalf("assigned %d > budget %d", res.Assigned, cfg.GlobalTrials)
	}
	total := 0
	for _, c := range res.Campaigns {
		if c.Cursor > cfg.CampaignTrials {
			t.Fatalf("%s cursor %d exceeds campaign cap %d", c.App, c.Cursor, cfg.CampaignTrials)
		}
		if c.Result.Done != c.Cursor {
			t.Fatalf("%s done %d != cursor %d (holes without errors?)", c.App, c.Result.Done, c.Cursor)
		}
		total += c.Cursor
	}
	if total != res.Assigned {
		t.Fatalf("cursors sum to %d, assigned %d", total, res.Assigned)
	}
	// 3 campaigns x cap 20 = 60 >= 47: budget must be fully assigned.
	if res.Assigned != cfg.GlobalTrials {
		t.Fatalf("assigned %d, want full budget %d", res.Assigned, cfg.GlobalTrials)
	}
}

// TestFleetRoundRobinCycles checks the baseline policy spreads slices
// uniformly in spec order.
func TestFleetRoundRobinCycles(t *testing.T) {
	var order []string
	cfg := Config{
		Specs:        specsFor(t, "SIO", "KUE", "MGS"),
		GlobalTrials: 45,
		SliceTrials:  5,
		BaseSeed:     9,
		Policy:       PolicyRoundRobin,
		Progress:     func(r SliceRecord) { order = append(order, r.App) },
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	want := []string{"SIO", "KUE", "MGS", "SIO", "KUE", "MGS", "SIO", "KUE", "MGS"}
	if len(order) != len(want) {
		t.Fatalf("got %d slices, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("slice %d went to %s, want %s (%v)", i, order[i], want[i], order)
		}
	}
}

// TestFleetExhaustedTargetReleasesWorkers pins the decaying window: once a
// campaign hits its cap it leaves the active set, and the remaining budget
// flows to the others.
func TestFleetExhaustedTargetReleasesWorkers(t *testing.T) {
	cfg := Config{
		Specs:          specsFor(t, "SIO", "KUE"),
		GlobalTrials:   60,
		CampaignTrials: 20,
		SliceTrials:    5,
		BaseSeed:       5,
		Oracle:         true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 campaigns x cap 20 = 40 < 60: both campaigns must run to their cap.
	for _, c := range res.Campaigns {
		if c.Cursor != cfg.CampaignTrials {
			t.Fatalf("%s stopped at %d, want cap %d", c.App, c.Cursor, cfg.CampaignTrials)
		}
	}
	if res.Assigned != 40 {
		t.Fatalf("assigned %d, want 40", res.Assigned)
	}
}

// manifestedVariants runs a 20-app fleet under the given policy and
// returns how many distinct bug variants manifested at least once.
func manifestedVariants(t *testing.T, policy Policy, seed int64, budget, slice int) int {
	t.Helper()
	res, err := Run(Config{
		Specs:        specsAll(),
		GlobalTrials: budget,
		SliceTrials:  slice,
		BaseSeed:     seed,
		Policy:       policy,
		Oracle:       true,
		Coverage:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Manifested()
}

// TestFleetGreedyBeatsRoundRobin is the acceptance gate: a 20-app fleet
// with a fixed global budget must find first-manifestation on at least as
// many bug variants under the marginal-yield allocator as under uniform
// round-robin with the same budget — median over 5 fleet seeds. Everything
// is deterministic per seed (virtual time, one worker), so this is a
// regression gate, not a statistical test.
func TestFleetGreedyBeatsRoundRobin(t *testing.T) {
	if testing.Short() {
		t.Skip("20-app fleet x 5 seeds x 2 policies is not a -short test")
	}
	const (
		budget = 300 // 20 apps x 15 trials if spread uniformly
		slice  = 5
	)
	seeds := []int64{1, 2, 3, 4, 5}
	var greedy, rr []int
	for _, s := range seeds {
		greedy = append(greedy, manifestedVariants(t, PolicyGreedy, s, budget, slice))
		rr = append(rr, manifestedVariants(t, PolicyRoundRobin, s, budget, slice))
	}
	med := func(xs []int) int {
		ys := append([]int(nil), xs...)
		sort.Ints(ys)
		return ys[len(ys)/2]
	}
	t.Logf("greedy=%v (median %d) round-robin=%v (median %d)", greedy, med(greedy), rr, med(rr))
	if med(greedy) < med(rr) {
		t.Fatalf("greedy allocator found fewer variants than round-robin: %v (median %d) vs %v (median %d)",
			greedy, med(greedy), rr, med(rr))
	}
}

// TestFleetRunReleasesArenas: when the fleet finishes, no child campaign's
// world is left running — no network engine, pool worker or node loop.
func TestFleetRunReleasesArenas(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := Run(Config{
		Specs:        specsFor(t, "SIO", "KUE", "REP-replay"),
		GlobalTrials: 30,
		SliceTrials:  5,
		BaseSeed:     9,
		Coverage:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Fatalf("%d goroutines running after fleet.Run, %d before", after, before)
	}
}
