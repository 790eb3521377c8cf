// Package pool implements the libuv-style worker pool: a task queue consumed
// by worker goroutines, each completed task landing on a done queue whose
// completion callback runs on the event loop (paper §2.2, §4.2.3).
//
// Two behaviours matter for schedule fuzzing (§4.3.3):
//
//   - Task pick order. Stock libuv workers take tasks FIFO; the fuzzer
//     simulates multiple workers by looking ahead "degrees of freedom" tasks
//     and picking one at random, optionally waiting for the queue to fill.
//   - Done-queue (de)multiplexing. Stock libuv signals completion through a
//     single file descriptor, so one loop wakeup drains *every* completed
//     task consecutively. The fuzzer assigns each task its own pollable
//     completion event so done callbacks interleave with everything else.
//
// The pool is loop-agnostic: completion events are handed to a Post function
// supplied by the owner, and scheduling decisions are delegated to a Picker
// (implemented by the nodefz scheduler).
package pool

import (
	"sync"
	"time"

	"nodefz/internal/metrics"
	"nodefz/internal/oracle"
	"nodefz/internal/vclock"
)

// Task is one unit of work offloaded to the pool, like a libuv uv_work_t:
// Fn runs on a worker goroutine, Done runs on the event loop afterwards.
type Task struct {
	// Name labels the task in schedules and scheduler decisions.
	Name string
	// Fn is the work function, executed on a worker goroutine.
	Fn func() (any, error)
	// Done is the completion callback, executed on the event loop with Fn's
	// results. May be nil.
	Done func(result any, err error)
	// Latency is simulated service time charged to the worker (substrates
	// use it to model disk or resolver delay). In wall mode it is slept
	// inside the serialized region, exactly where substrates historically
	// slept inside Fn; under a virtual clock it is charged before the run
	// lock is taken, because a participant must never wait on the clock
	// while holding a lock the loop needs.
	Latency time.Duration
	// ORef is the oracle unit that submitted the task; the Done callback
	// executes as a unit that happens-after it. Zero when the oracle is
	// off.
	ORef oracle.Ref

	result any
	err    error
}

// Picker supplies the worker-side scheduling decisions. The nodefz scheduler
// implements it; vanilla behaviour is FIFO with no waiting.
type Picker interface {
	// PickTask selects among the first n queued tasks; 0 <= PickTask(n) < n.
	PickTask(n int) int
	// WaitPolicy returns the lookahead degrees of freedom (<0 unlimited),
	// the total maximum wait for the queue to fill, and the maximum time the
	// event loop may be left sitting in its poll phase meanwhile.
	WaitPolicy() (dof int, maxDelay, pollThreshold time.Duration)
}

// FIFOPicker is the vanilla policy: always take the head of the queue,
// never wait.
type FIFOPicker struct{}

// PickTask implements Picker.
func (FIFOPicker) PickTask(int) int { return 0 }

// WaitPolicy implements Picker.
func (FIFOPicker) WaitPolicy() (int, time.Duration, time.Duration) { return 1, 0, 0 }

// Config assembles a Pool.
type Config struct {
	// Size is the number of worker goroutines. Must be >= 1.
	Size int
	// Picker supplies scheduling decisions; nil means FIFOPicker.
	Picker Picker
	// RunLock, when non-nil, is held around every task execution, and the
	// owning loop holds it around every callback: the serialization step of
	// §4.3.3. Nil means tasks run concurrently with loop callbacks.
	RunLock sync.Locker
	// Demux selects per-task completion events instead of the multiplexed
	// done queue.
	Demux bool
	// Post delivers a ready completion callback to the event loop's poll
	// phase, threading the submitting oracle unit along. Required.
	Post func(kind, label string, ref oracle.Ref, cb func())
	// Probe is the concurrency oracle; the multiplexed done-queue drain
	// uses it to bracket each completion as its own sub-unit with its
	// task's submit edge. Nil when the oracle is off.
	Probe *oracle.Tracker
	// Record, when non-nil, is called as each task begins executing on a
	// worker ("work" entries in the type schedule).
	Record func(kind, label string)
	// TimeInPoll reports how long the owning loop has been blocked in its
	// poll phase (zero when it is not). Used for the "epoll threshold" wait
	// limit. Nil means the limit is ignored.
	TimeInPoll func() time.Duration
	// Metrics receives pool activity: task/done queue depths, task
	// durations, worker busy time. Nil records nothing.
	Metrics *metrics.Registry
	// Clock is the pool's time source for the lookahead wait; the workers
	// register as clock participants. Nil means vclock.Wall.
	Clock vclock.Clock
}

// Pool is a worker pool. Create with New, feed with Submit, and shut down
// with Close.
type Pool struct {
	cfg Config

	clk  vclock.Clock
	role int // the workers' shared virtual-clock wake role
	// lean is set when the owner supplied no metrics registry: the
	// instruments are nil (no-ops), and the wall-clock task timing feeding
	// them is skipped, which removes two time.Now calls from every task.
	lean bool

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Task
	doneq  []*Task // multiplexed done queue (Demux == false)
	closed bool
	wg     sync.WaitGroup

	// Wake accounting for the virtual clock, guarded by mu. waiters counts
	// workers parked in cond.Wait; sigPending counts cond.Signals sent but
	// not yet consumed (each paired with one clock run grant). fillWaiting
	// counts workers parked in the lookahead wait on the fill channel.
	waiters     int
	sigPending  int
	fillWaiting int
	// fill nudges a lookahead-waiting worker: the queue grew, the loop
	// entered poll, or the pool is closing. Cap 1; sends are paired with a
	// clock run grant and only attempted while fillWaiting > 0.
	fill chan struct{}

	// stats, guarded by mu
	executed int

	// Metric handles, resolved once in New (lock-free to record).
	mSubmitted  *metrics.Counter   // pool.tasks_submitted
	mExecuted   *metrics.Counter   // pool.tasks_executed
	mBusyNS     *metrics.Counter   // pool.busy_ns: total worker time in task Fns
	mQueueDepth *metrics.Histogram // pool.queue_depth: task queue length at submit
	mDoneDepth  *metrics.Histogram // pool.done_depth: multiplexed done-queue length
	mPickWindow *metrics.Histogram // pool.pick_window: lookahead window at each take
	mTaskNS     *metrics.Histogram // pool.task_ns: per-task execution time
}

// New starts the worker goroutines and returns the pool.
func New(cfg Config) *Pool {
	if cfg.Size < 1 {
		cfg.Size = 1
	}
	if cfg.Picker == nil {
		cfg.Picker = FIFOPicker{}
	}
	if cfg.Post == nil {
		panic("pool: Config.Post is required")
	}
	lean := cfg.Metrics == nil
	if cfg.Clock == nil {
		cfg.Clock = vclock.Wall{}
	}
	p := &Pool{cfg: cfg, clk: cfg.Clock, lean: lean, fill: make(chan struct{}, 1)}
	p.mSubmitted = cfg.Metrics.Counter("pool.tasks_submitted")
	p.mExecuted = cfg.Metrics.Counter("pool.tasks_executed")
	p.mBusyNS = cfg.Metrics.Counter("pool.busy_ns")
	p.mQueueDepth = cfg.Metrics.Histogram("pool.queue_depth", metrics.DepthBounds())
	p.mDoneDepth = cfg.Metrics.Histogram("pool.done_depth", metrics.DepthBounds())
	p.mPickWindow = cfg.Metrics.Histogram("pool.pick_window", metrics.DepthBounds())
	p.mTaskNS = cfg.Metrics.Histogram("pool.task_ns", metrics.DurationBounds())
	p.cond = sync.NewCond(&p.mu)
	p.role = p.clk.AllocRole()
	p.wg.Add(cfg.Size)
	for i := 0; i < cfg.Size; i++ {
		// The spawn grant fixes each worker's place in the virtual run
		// order; the worker claims it with Start before touching the queue.
		p.clk.Wake(p.role)
		go p.worker()
	}
	return p
}

// Submit queues a task for execution. It is safe to call from any
// goroutine. Tasks submitted while the pool is closed are buffered and run
// after Restart — the loop-between-runs case.
func (p *Pool) Submit(t *Task) {
	p.mu.Lock()
	p.queue = append(p.queue, t)
	depth := len(p.queue)
	// Wake exactly one idle worker per submit, granting it a virtual-clock
	// turn: sigPending tracks signals not yet consumed so repeated submits
	// never over-grant a single waiter.
	if p.waiters > p.sigPending {
		p.clk.Wake(p.role)
		p.sigPending++
		p.cond.Signal()
	}
	p.pokeFillLocked()
	p.mu.Unlock()
	p.mSubmitted.Inc()
	if !p.lean {
		p.mQueueDepth.Observe(int64(depth))
	}
}

// pokeFillLocked nudges a lookahead-waiting worker, pairing the cap-1 send
// with a clock run grant. Caller holds p.mu (fillWaiting is stable).
func (p *Pool) pokeFillLocked() {
	if p.fillWaiting == 0 {
		return
	}
	p.clk.Wake(p.role)
	select {
	case p.fill <- struct{}{}:
	default:
		p.clk.Unwake(p.role)
	}
}

// PokeWaiters tells lookahead-waiting workers that the owning loop's state
// changed (it entered its poll phase, starting the epoll-threshold clock) so
// they can rebound their wait. Safe from any goroutine.
func (p *Pool) PokeWaiters() {
	p.mu.Lock()
	p.pokeFillLocked()
	p.mu.Unlock()
}

// QueueLen reports the number of tasks waiting to be executed.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Executed reports the total number of tasks that have begun execution.
func (p *Pool) Executed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.executed
}

// Close stops the workers after the queue drains and waits for them to
// exit. Completion events already posted to the loop are unaffected, and
// Restart brings the pool back.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.pokeFillLocked()
	p.mu.Unlock()
	p.cond.Broadcast()
	// The shutdown wait counts as blocked on the clock: a stopped trial can
	// leave a worker mid-way through charging virtual task latency, and the
	// clock must stay free to advance it to completion. Close's only
	// production caller is the loop's Run — a registered participant.
	p.clk.Block()
	p.wg.Wait()
	p.clk.UnblockKeep()
}

// Reset re-arms a closed pool for a new trial: the task and done queues are
// truncated in place (keeping their backing arrays) and the counters
// rewind. The caller must have Closed the pool — no worker goroutine alive —
// and owns resetting the shared metrics registry; Restart brings the
// workers back.
func (p *Pool) Reset() {
	p.mu.Lock()
	clear(p.queue)
	p.queue = p.queue[:0]
	clear(p.doneq)
	p.doneq = p.doneq[:0]
	p.executed = 0
	p.sigPending = 0
	select {
	case <-p.fill:
	default:
	}
	p.mu.Unlock()
}

// Restart re-spawns the workers of a closed pool; a no-op on a running
// one. The owning loop calls it at the start of each Run so work queued
// between runs executes.
func (p *Pool) Restart() {
	p.mu.Lock()
	if !p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = false
	p.mu.Unlock()
	p.wg.Add(p.cfg.Size)
	for i := 0; i < p.cfg.Size; i++ {
		p.clk.Wake(p.role)
		go p.worker()
	}
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.clk.Register()
	defer p.clk.Unregister()
	p.clk.Start(p.role)
	for {
		t, ok := p.take()
		if !ok {
			return
		}
		_, wall := p.clk.(vclock.Wall)
		if t.Latency > 0 && !wall {
			p.clk.Sleep(t.Latency)
		}
		if p.cfg.RunLock != nil {
			vclock.LockBlocking(p.clk, p.cfg.RunLock)
		}
		if p.cfg.Record != nil {
			p.cfg.Record("work", t.Name)
		}
		if t.Latency > 0 && wall {
			time.Sleep(t.Latency)
		}
		if p.lean {
			t.result, t.err = t.Fn()
		} else {
			start := time.Now()
			t.result, t.err = t.Fn()
			busy := time.Since(start)
			p.mBusyNS.Add(int64(busy))
			p.mTaskNS.Observe(int64(busy))
		}
		if p.cfg.RunLock != nil {
			p.cfg.RunLock.Unlock()
		}
		p.complete(t)
	}
}

// take blocks until a task is available (honouring the Picker's wait
// policy) and removes it from the queue. ok is false when the pool is
// closed and drained.
func (p *Pool) take() (t *Task, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var dof int
	for {
		for len(p.queue) == 0 {
			if p.closed {
				return nil, false
			}
			p.waiters++
			p.clk.Block()
			p.cond.Wait()
			p.waiters--
			if p.sigPending > 0 {
				// A Submit signalled us and granted a turn; claim it without
				// holding p.mu (the running participant may need the pool).
				p.sigPending--
				p.mu.Unlock()
				p.clk.AwaitTurn(p.role)
				p.mu.Lock()
			} else {
				// Close's broadcast carries no grant.
				p.clk.UnblockKeep()
			}
		}

		// Wait for the queue to fill up to the lookahead window (§4.3.4,
		// "Scheduling the Worker Pool"), bounded by maxDelay and by how long
		// the event loop has been idle in poll. A sibling worker may drain
		// the queue while we wait, in which case start over.
		var maxDelay, pollThreshold time.Duration
		dof, maxDelay, pollThreshold = p.cfg.Picker.WaitPolicy()
		if maxDelay > 0 && (dof < 0 || len(p.queue) < dof) {
			if !p.fillWaitLocked(dof, maxDelay, pollThreshold) {
				if p.closed && len(p.queue) == 0 {
					return nil, false
				}
				continue
			}
		}
		break
	}

	window := len(p.queue)
	if dof > 0 && dof < window {
		window = dof
	}
	if !p.lean {
		p.mPickWindow.Observe(int64(window))
	}
	i := 0
	if window > 1 {
		i = p.cfg.Picker.PickTask(window)
		if i < 0 || i >= window {
			i = 0
		}
	}
	t = p.queue[i]
	p.queue = append(p.queue[:i:i], p.queue[i+1:]...)
	p.executed++
	p.mExecuted.Inc()
	return t, true
}

// fillWaitLocked parks the worker until the lookahead window fills, the
// fill deadline or the loop's poll threshold expires, or the pool closes.
// Instead of the historical 20µs unlock/sleep/lock spin it waits on the
// fill channel bounded by a clock timer: no busy CPU in wall mode, no time
// at all in virtual mode. Caller holds p.mu; returns with p.mu held, false
// when the queue emptied and the caller must start over.
func (p *Pool) fillWaitLocked(dof int, maxDelay, pollThreshold time.Duration) bool {
	deadline := p.clk.Now().Add(maxDelay)
	for !p.closed && (dof < 0 || len(p.queue) < dof) {
		remaining := p.clk.Until(deadline)
		if remaining <= 0 {
			break
		}
		if p.cfg.TimeInPoll != nil && pollThreshold > 0 {
			tip := p.cfg.TimeInPoll()
			if tip >= pollThreshold {
				break
			}
			// The loop is sitting in poll: the threshold trips before our
			// fill deadline, so bound the wait by it. (When the loop enters
			// poll mid-wait it pokes us and we rebound here.)
			if tip > 0 && pollThreshold-tip < remaining {
				remaining = pollThreshold - tip
			}
		}
		p.fillWaiting++
		t := p.clk.NewTimerPri(remaining, 1)
		p.mu.Unlock()
		p.clk.Block()
		select {
		case <-p.fill:
			// A nudge carries a run grant; stop the abandoned timer before
			// claiming our turn (an advance may trigger while we wait).
			t.Stop()
			t.Release()
			p.clk.AwaitTurn(p.role)
		case <-t.C:
			t.Stop()
			t.Release()
			p.clk.Unblock()
		}
		p.mu.Lock()
		p.fillWaiting--
		// A nudge that raced the timer leaves its token (and its unclaimed
		// grant) behind; both must be consumed before anyone blocks again.
		select {
		case <-p.fill:
			p.clk.Unwake(p.role)
		default:
		}
		if len(p.queue) == 0 {
			return false
		}
	}
	return len(p.queue) > 0
}

// complete routes the finished task to the loop: either as its own poll
// event (demultiplexed) or through the shared done queue (multiplexed, the
// stock libuv behaviour).
func (p *Pool) complete(t *Task) {
	if p.cfg.Demux {
		p.cfg.Post("work-done", t.Name, t.ORef, func() {
			if t.Done != nil {
				t.Done(t.result, t.err)
			}
		})
		return
	}
	p.mu.Lock()
	p.doneq = append(p.doneq, t)
	first := len(p.doneq) == 1
	depth := len(p.doneq)
	p.mu.Unlock()
	if !p.lean {
		p.mDoneDepth.Observe(int64(depth))
	}
	if first {
		// One wakeup drains the whole done queue: the multiplexing that
		// §4.3.1 calls out as hostile to fuzzing. Every done callback that
		// has accumulated by the time the loop handles this event runs
		// consecutively, with nothing interleaved.
		p.cfg.Post("work-done", "done-queue", oracle.Ref{}, p.drainDone)
	}
}

// drainDone is the multiplexed done queue's poll-event callback. Each
// completion runs as its own nested oracle unit carrying its task's
// submit edge — the drain wrapper itself has no single cause.
func (p *Pool) drainDone() {
	for {
		p.mu.Lock()
		batch := p.doneq
		p.doneq = nil
		p.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		for _, t := range batch {
			var tok oracle.Token
			if p.cfg.Probe != nil {
				tok = p.cfg.Probe.Begin("work-done", t.Name, t.ORef)
			}
			if t.Done != nil {
				t.Done(t.result, t.err)
			}
			if p.cfg.Probe != nil {
				p.cfg.Probe.End(tok)
			}
		}
	}
}
