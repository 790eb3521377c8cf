package main

import (
	"testing"

	"nodefz/internal/bugs"
)

func recordStream(t *testing.T, apps []string, trials int) *unitResult {
	t.Helper()
	w := &workload{
		apps: func() []*bugs.App {
			var out []*bugs.App
			for _, a := range apps {
				out = append(out, bugs.ByAbbr(a))
			}
			return out
		},
		trials:      trials,
		unitSeconds: 1,
	}
	u, err := w.runUnit(3, 0, t.TempDir(), unitOpts{record: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.stream) != trials*len(apps) {
		t.Fatalf("stream holds %d trials, want %d", len(u.stream), trials*len(apps))
	}
	return u
}

func TestReplayReproducesStream(t *testing.T) {
	u := recordStream(t, []string{"SIO"}, 20)
	var tot layerTotals
	failed, first, err := replayUnit(u, t.TempDir(), &tot)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d of 20 trials did not reproduce; first: %s", failed, first)
	}
	if tot.trials != 20 || tot.records == 0 || tot.decisions == 0 || tot.handoffs == 0 || tot.callbacks == 0 {
		t.Fatalf("probes saw nothing: %+v", tot)
	}
}

// A cluster trial builds a fresh world on the clock probe and sends its
// cross-node traffic through the scheduler probe's PerturbDelivery.
func TestReplayReproducesClusterStream(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster trials take ~10ms each")
	}
	u := recordStream(t, []string{"REP-elect"}, 6)
	var tot layerTotals
	failed, first, err := replayUnit(u, t.TempDir(), &tot)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Fatalf("%d of 6 trials did not reproduce; first: %s", failed, first)
	}
	if tot.deliveries == 0 || tot.handoffs == 0 {
		t.Fatalf("cluster trials saw no deliveries or handoffs: %+v", tot)
	}
}

func TestReplayFlagsDivergence(t *testing.T) {
	u := recordStream(t, []string{"SIO"}, 20)
	u.stream[5].entry.Digest = "0000000000000000"
	u.stream[9].entry.Manifested = !u.stream[9].entry.Manifested
	var tot layerTotals
	failed, _, err := replayUnit(u, t.TempDir(), &tot)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 2 {
		t.Fatalf("%d trials flagged, want the 2 altered ones", failed)
	}
}
