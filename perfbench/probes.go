package main

import (
	"sync"
	"sync/atomic"
	"time"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/vclock"
)

// The probes are decorators the traced run installs around the layers a
// trial crosses. Each forwards every call unchanged and adds a count and the
// wall time the call took. They live in the benchmark, so the program runs
// with no instrumentation of its own.
//
// Under virtual time at most one trial goroutine runs at a time (the clock's
// run token), so the times the probes add up never overlap; the counters are
// atomic anyway, because a hook may be called from the event loop or from a
// pool worker.

// epoch anchors mono; time.Since reads the monotonic clock.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// schedProbe decorates an eventloop.Scheduler, timing each decision hook:
// FilterTimers, ShuffleReady, DeferClose, PickTask and PerturbDelivery. The
// configuration getters are forwarded untimed.
type schedProbe struct {
	inner eventloop.Scheduler

	decisions  atomic.Int64
	ns         atomic.Int64
	deliveries atomic.Int64

	mu        sync.Mutex
	shuffleNS []float64 // per ShuffleReady call, for the per-call median
}

var (
	_ eventloop.Scheduler    = (*schedProbe)(nil)
	_ core.DeliveryPerturber = (*schedProbe)(nil)
	_ core.DecisionSource    = (*schedProbe)(nil)
)

func newSchedProbe(inner eventloop.Scheduler) *schedProbe { return &schedProbe{inner: inner} }

func (p *schedProbe) note(t0 int64) {
	p.decisions.Add(1)
	p.ns.Add(mono() - t0)
}

func (p *schedProbe) Name() string               { return p.inner.Name() }
func (p *schedProbe) Serialize() bool            { return p.inner.Serialize() }
func (p *schedProbe) DemuxDone() bool            { return p.inner.DemuxDone() }
func (p *schedProbe) PoolSize(requested int) int { return p.inner.PoolSize(requested) }

func (p *schedProbe) WaitPolicy() (int, time.Duration, time.Duration) {
	return p.inner.WaitPolicy()
}

func (p *schedProbe) FilterTimers(due int) (int, time.Duration) {
	t0 := mono()
	run, delay := p.inner.FilterTimers(due)
	p.note(t0)
	return run, delay
}

func (p *schedProbe) ShuffleReady(ready []*eventloop.Event) (run, deferred []*eventloop.Event) {
	t0 := mono()
	run, deferred = p.inner.ShuffleReady(ready)
	d := mono() - t0
	p.decisions.Add(1)
	p.ns.Add(d)
	p.mu.Lock()
	p.shuffleNS = append(p.shuffleNS, float64(d))
	p.mu.Unlock()
	return run, deferred
}

func (p *schedProbe) DeferClose(label string) bool {
	t0 := mono()
	v := p.inner.DeferClose(label)
	p.note(t0)
	return v
}

func (p *schedProbe) PickTask(n int) int {
	t0 := mono()
	i := p.inner.PickTask(n)
	p.note(t0)
	return i
}

// PerturbDelivery forwards simnet's cross-node decision point. Without it a
// wrapped scheduler would silently stop fuzzing cluster deliveries: the
// network asks for the hook by type assertion. It counts every delivery the
// network asks about.
func (p *schedProbe) PerturbDelivery(name string) time.Duration {
	t0 := mono()
	var d time.Duration
	if dp, ok := p.inner.(core.DeliveryPerturber); ok {
		d = dp.PerturbDelivery(name)
	}
	p.deliveries.Add(1)
	p.note(t0)
	return d
}

// Decisions forwards the inner scheduler's decision counters, which the
// recording wrapper reads by type assertion.
func (p *schedProbe) Decisions() core.DecisionCounters {
	d, _ := core.DecisionsOf(p.inner)
	return d
}

// takeShuffles returns and clears the per-call ShuffleReady times.
func (p *schedProbe) takeShuffles() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.shuffleNS
	p.shuffleNS = nil
	return s
}

// recorderProbe decorates an eventloop.Recorder, counting and timing Record.
type recorderProbe struct {
	inner   eventloop.Recorder
	records atomic.Int64
	ns      atomic.Int64
}

func (p *recorderProbe) Record(kind, label string) {
	t0 := mono()
	p.inner.Record(kind, label)
	p.ns.Add(mono() - t0)
	p.records.Add(1)
}

// clockProbe decorates a vclock.Clock. The calls that wait for the run token
// (Block, Start, AwaitTurn, Unblock and Sleep) add to the wait time; every
// token acquisition among them counts as one handoff. All other calls run
// while the caller holds the token and add to the clock's self time.
type clockProbe struct {
	inner vclock.Clock

	handoffs atomic.Int64
	waitNS   atomic.Int64
	selfNS   atomic.Int64
}

var _ vclock.Clock = (*clockProbe)(nil)

func (c *clockProbe) self(t0 int64) { c.selfNS.Add(mono() - t0) }
func (c *clockProbe) wait(t0 int64) { c.waitNS.Add(mono() - t0) }

func (c *clockProbe) Now() time.Time {
	t0 := mono()
	v := c.inner.Now()
	c.self(t0)
	return v
}

func (c *clockProbe) Since(t time.Time) time.Duration {
	t0 := mono()
	v := c.inner.Since(t)
	c.self(t0)
	return v
}

func (c *clockProbe) Until(t time.Time) time.Duration {
	t0 := mono()
	v := c.inner.Until(t)
	c.self(t0)
	return v
}

func (c *clockProbe) Sleep(d time.Duration) {
	t0 := mono()
	c.inner.Sleep(d)
	c.handoffs.Add(1)
	c.wait(t0)
}

func (c *clockProbe) Charge(d time.Duration) {
	t0 := mono()
	c.inner.Charge(d)
	c.self(t0)
}

func (c *clockProbe) NewTimer(d time.Duration) *vclock.Timer {
	t0 := mono()
	v := c.inner.NewTimer(d)
	c.self(t0)
	return v
}

func (c *clockProbe) NewTimerPri(d time.Duration, pri int) *vclock.Timer {
	t0 := mono()
	v := c.inner.NewTimerPri(d, pri)
	c.self(t0)
	return v
}

func (c *clockProbe) AllocRole() int {
	t0 := mono()
	v := c.inner.AllocRole()
	c.self(t0)
	return v
}

func (c *clockProbe) Register() {
	t0 := mono()
	c.inner.Register()
	c.self(t0)
}

func (c *clockProbe) Unregister() {
	t0 := mono()
	c.inner.Unregister()
	c.self(t0)
}

func (c *clockProbe) Block() {
	t0 := mono()
	c.inner.Block()
	c.wait(t0)
}

func (c *clockProbe) Unblock() {
	t0 := mono()
	c.inner.Unblock()
	c.handoffs.Add(1)
	c.wait(t0)
}

func (c *clockProbe) UnblockKeep() {
	t0 := mono()
	c.inner.UnblockKeep()
	c.self(t0)
}

func (c *clockProbe) Wake(role int) {
	t0 := mono()
	c.inner.Wake(role)
	c.self(t0)
}

func (c *clockProbe) Unwake(role int) {
	t0 := mono()
	c.inner.Unwake(role)
	c.self(t0)
}

func (c *clockProbe) Start(role int) {
	t0 := mono()
	c.inner.Start(role)
	c.handoffs.Add(1)
	c.wait(t0)
}

func (c *clockProbe) AwaitTurn(role int) {
	t0 := mono()
	c.inner.AwaitTurn(role)
	c.handoffs.Add(1)
	c.wait(t0)
}
