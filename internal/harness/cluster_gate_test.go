package harness

import (
	"reflect"
	"testing"

	"nodefz/internal/bugs"
)

// repApps returns the cluster-tier corpus entries (the REP variants).
func repApps(t *testing.T) []*bugs.App {
	t.Helper()
	var apps []*bugs.App
	for _, abbr := range []string{"REP-elect", "REP-replay"} {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from registry", abbr)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestClusterOracleGate is the oracle acceptance gate for the cluster tier:
// on every manifesting buggy trial — across all three Figure 6 modes and a
// spread of seeds — the tracker must report a violation, with no hand-written
// detector needed. It is the multi-node mirror of
// TestOracleAgreesWithDetectors, demanding agreement on *every* manifesting
// trial in the budget rather than the first: cross-node happens-before
// edges (send→deliver between loops) flow through the same hooks as
// single-node ones, so a silent manifestation means an HB edge is being
// invented somewhere across the cluster. The patched-variant half of the
// gate — REP silent across the same spread — runs in
// TestOracleFixedVariantsSilent, which covers the REP entries via
// bugs.All().
func TestClusterOracleGate(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for _, app := range repApps(t) {
		app := app
		t.Run(app.Abbr, func(t *testing.T) {
			manifested := 0
			for _, mode := range Fig6Modes() {
				for s := 0; s < seeds; s++ {
					seed := int64(s + 1)
					tr, out := oracleTrial(app.Run, mode, seed)
					if !out.Manifested {
						continue
					}
					manifested++
					if len(tr.Reports()) == 0 {
						t.Fatalf("%s buggy manifested under %s seed %d (%s) but the oracle is silent",
							app.Abbr, mode, seed, out.Note)
					}
				}
			}
			// The fault scripts are tuned so the fuzzing mode manifests on a
			// known fraction of these seeds; zero across the whole sweep
			// means the script regressed and the gate above checked nothing.
			if manifested == 0 {
				t.Fatalf("%s: no manifesting trial in %d seeds x 3 modes — gate is vacuous",
					app.Abbr, seeds)
			}
		})
	}
}

// TestArenaClusterEquivalence is the gate for arena-owned cluster worlds: a
// cluster trial runs several node loops on the arena's clock and abandons
// some mid-trial (a killed node's loop stops with work queued), and the
// arena resets those node loops in place for the next trial instead of
// building new ones. Correctness bar, same as TestArenaResetEquivalence:
// every arena trial is bit-identical to the same trial in a freshly built
// world.
//
// Each app/mode subtest runs one app's seeds through one arena and then an
// SIO trial, which reuses the control loop the node loops shared a clock
// with. Each shared/mode subtest runs one arena through REP-replay →
// REP-elect → REP-replay → SIO: REP-replay restarts node 0, so the arena
// grows to four node loops, and REP-elect then reuses only three of them.
func TestArenaClusterEquivalence(t *testing.T) {
	seeds := 4
	if testing.Short() {
		seeds = 2
	}
	byAbbr := func(abbr string) *bugs.App {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from registry", abbr)
		}
		return app
	}
	single := byAbbr("SIO")
	compare := func(t *testing.T, w *arenaWorld, a *bugs.App, mode Mode, seed int64) {
		t.Helper()
		fresh := runFreshOracleTrial(a, mode, seed)
		if len(fresh.types) == 0 {
			t.Fatal("trial recorded no callbacks — test is vacuous")
		}
		reused := w.run(a, mode, seed)
		if !reflect.DeepEqual(fresh.trace, reused.trace) {
			t.Fatalf("%s seed %d: decision trace diverged between fresh and arena worlds",
				a.Abbr, seed)
		}
		if !reflect.DeepEqual(fresh.types, reused.types) {
			t.Fatalf("%s seed %d: type schedule diverged:\nfresh: %v\narena: %v",
				a.Abbr, seed, fresh.types, reused.types)
		}
		if !reflect.DeepEqual(fresh.stamps, reused.stamps) {
			t.Fatalf("%s seed %d: virtual timestamps diverged", a.Abbr, seed)
		}
		if !reflect.DeepEqual(fresh.violations, reused.violations) {
			t.Fatalf("%s seed %d: oracle reports diverged:\nfresh: %+v\narena: %+v",
				a.Abbr, seed, fresh.violations, reused.violations)
		}
		if !reflect.DeepEqual(fresh.coverage, reused.coverage) {
			t.Fatalf("%s seed %d: coverage digest diverged:\nfresh: %+v\narena: %+v",
				a.Abbr, seed, fresh.coverage, reused.coverage)
		}
	}
	modes := []Mode{ModeNFZ, ModeFZ}
	for _, app := range repApps(t) {
		app := app
		for _, mode := range modes {
			mode := mode
			t.Run(app.Abbr+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				w := newArenaWorld(mode, 1)
				for s := 0; s < seeds; s++ {
					compare(t, w, app, mode, int64(s+1))
				}
				compare(t, w, single, mode, 7)
			})
		}
	}
	legs := []*bugs.App{byAbbr("REP-replay"), byAbbr("REP-elect"), byAbbr("REP-replay"), single}
	for _, mode := range modes {
		mode := mode
		t.Run("shared/"+mode.String(), func(t *testing.T) {
			t.Parallel()
			w := newArenaWorld(mode, 1)
			for leg, app := range legs {
				for s := 0; s < seeds; s++ {
					compare(t, w, app, mode, int64(leg*seeds+s+1))
				}
			}
		})
	}
}
