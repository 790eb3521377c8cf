package main

import (
	"testing"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
)

// perturber is a minimal scheduler that fuzzes cross-node deliveries.
type perturber struct {
	eventloop.VanillaScheduler
	calls []string
}

func (p *perturber) PerturbDelivery(name string) time.Duration {
	p.calls = append(p.calls, name)
	return 3 * time.Millisecond
}

func TestSchedProbeForwardsPerturbDelivery(t *testing.T) {
	inner := &perturber{}
	probe := newSchedProbe(inner)

	// simnet finds the hook by type assertion on the scheduler it is given,
	// which in a campaign is the recording wrapper around the probe.
	var s eventloop.Scheduler = core.NewRecording(probe)
	dp, ok := s.(core.DeliveryPerturber)
	if !ok {
		t.Fatal("recording wrapper lost PerturbDelivery")
	}
	if d := dp.PerturbDelivery("node1"); d != 3*time.Millisecond {
		t.Fatalf("delay %v, want the inner scheduler's 3ms", d)
	}
	if len(inner.calls) != 1 || inner.calls[0] != "node1" {
		t.Fatalf("inner calls %v, want [node1]", inner.calls)
	}
	if probe.deliveries.Load() != 1 || probe.decisions.Load() != 1 {
		t.Fatalf("probe counted %d deliveries, %d decisions; want 1, 1",
			probe.deliveries.Load(), probe.decisions.Load())
	}
}

func TestSchedProbeKeepsDecisionStream(t *testing.T) {
	bare := core.NewScheduler(core.ClusterParams(), 7)
	inner := core.NewScheduler(core.ClusterParams(), 7)
	probe := newSchedProbe(inner)
	for i := 0; i < 200; i++ {
		if a, b := bare.PerturbDelivery("n"), probe.PerturbDelivery("n"); a != b {
			t.Fatalf("delivery %d: probe %v, bare scheduler %v", i, b, a)
		}
		if a, b := bare.PickTask(4), probe.PickTask(4); a != b {
			t.Fatalf("pick %d: probe %v, bare scheduler %v", i, b, a)
		}
	}
	if got, want := probe.Decisions(), bare.Decisions(); got != want {
		t.Fatalf("forwarded decisions %+v, want %+v", got, want)
	}
}
