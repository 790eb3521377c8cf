package bugs

import (
	"fmt"
	"time"

	"nodefz/internal/oracle"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
)

// akaApp models agentkeepalive bug #23 (Table 2, row 6): an atomicity
// violation between a network event and a timer event on the keepalive
// agent's socket state. When a pooled idle socket times out, the 'timeout'
// handler marks it dead and initiates the close, but the socket is only
// removed from the free list by the 'close' callback; a request dispatched
// between the two events checks out the dead socket and throws.
//
// This is the bug whose report inspired Node.fz (§2.3): "I don't know how
// to artificially expand the delay between the 'timeout' and 'close'
// events". The paper's fix performs the read and write in the same
// callback: the timeout handler itself removes the socket from the pool.
func akaApp() *App {
	return &App{
		Abbr: "AKA", Name: "agentkeepalive", Issue: "23",
		Type: "Module", LoC: "1.9K", DlMo: "194K",
		Desc:         "keepalive http agent",
		RaceType:     "AV",
		RacingEvents: "NW-Timer",
		RaceOn:       "Variable",
		Impact:       "Throws error (possible crash).",
		FixStrategy:  "Rd/wr in same callback.",
		InFig6:       true,
		Run:          func(cfg RunConfig) Outcome { return akaRun(cfg, false) },
		RunFixed:     func(cfg RunConfig) Outcome { return akaRun(cfg, true) },
	}
}

type akaSocket struct {
	conn     *simnet.Conn
	timedOut bool
}

func akaRun(cfg RunConfig, fixed bool) Outcome {
	l := cfg.NewLoop()
	net := cfg.NewNet()
	defer net.Close()
	Watchdog(l, 3*time.Second)

	var out Outcome
	const idleTimeout = 15 * time.Millisecond

	logFS := simfs.New()
	if err := logFS.Create("/agent.log"); err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}
	logfsa := simfs.Bind(l, logFS, 2*time.Millisecond, cfg.Seed+3)

	// The backend the agent keeps connections alive to.
	backendLn, err := net.Listen(l, "backend", func(c *simnet.Conn) {
		c.OnData(func(msg []byte) { _ = c.Send(append([]byte("re:"), msg...)) })
	})
	if err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}

	// --- the keepalive agent (the racy code) ---
	var free []*akaSocket
	removeFree := func(s *akaSocket) {
		for i, f := range free {
			if f == s {
				free = append(free[:i:i], free[i+1:]...)
				return
			}
		}
	}
	// release parks a socket in the free list with an idle timeout.
	release := func(s *akaSocket) {
		free = append(free, s)
		l.SetTimeoutNamed("keepalive-timeout", idleTimeout, func() {
			// 'timeout' event: the socket is now unusable.
			s.timedOut = true
			if fixed {
				// Patched: invalidation and pool removal in one callback.
				removeFree(s)
				s.conn.Close()
				return
			}
			// The buggy teardown is cooperative: the 'timeout' handler
			// logs the expiry asynchronously and the socket only leaves the
			// pool in the 'close' step at the end of that chain — the delay
			// between the 'timeout' and 'close' events the bug reporter
			// could not artificially expand (§2.3). The oracle models that
			// window as an intended-atomic span on the pool: a checkout
			// landing inside it is exactly the §3 atomicity violation. The
			// patched handler completes the transition in one callback, so
			// there is no span to violate.
			sp := cfg.Oracle.BeginSpan("aka:pool")
			logfsa.Append("/agent.log", []byte("socket timeout\n"), func(error) {
				removeFree(s)
				s.conn.Close()
				cfg.Oracle.EndSpan(sp)
			})
		})
	}
	requestsDone := 0
	// doRequest performs one backend round trip through the agent. reuse
	// selects whether the socket is parked afterwards (first request) or
	// closed (subsequent ones), so each trial has exactly one pooled
	// socket and one idle timer.
	doRequest := func(tag string, reuse bool, done func()) {
		finish := func(s *akaSocket) {
			s.conn.OnData(func([]byte) {
				requestsDone++
				if reuse {
					release(s)
				} else {
					s.conn.Close()
				}
				done()
			})
			_ = s.conn.Send([]byte(tag))
		}
		cfg.Oracle.Access("aka:pool", oracle.Read)
		if len(free) > 0 {
			s := free[0]
			free = free[1:]
			if s.timedOut {
				// The thrown error from the bug report.
				out.Manifested = true
				out.Note = fmt.Sprintf("request %s checked out a timed-out socket", tag)
				requestsDone++
				done()
				return
			}
			finish(s)
			return
		}
		net.Dial(l, "backend", func(conn *simnet.Conn, err error) {
			if err != nil {
				if out.Note == "" {
					out.Note = "setup: " + err.Error()
				}
				done()
				return
			}
			finish(&akaSocket{conn: conn})
		})
	}

	// --- the front server driving the agent ---
	// Requests arrive over the network (the NW half of the NW-Timer race).
	frontLn, err := net.Listen(l, "front", func(c *simnet.Conn) {
		c.OnData(func(msg []byte) {
			tag := string(msg)
			doRequest(tag, tag == "one", func() { _ = c.Send([]byte("done:" + tag)) })
		})
	})
	if err != nil {
		return Outcome{Note: "setup: " + err.Error()}
	}

	// Test case: the first request populates the pool; two more arrive
	// right around the keepalive deadline of the parked socket.
	clientReplies := 0
	net.Dial(l, "front", func(conn *simnet.Conn, err error) {
		if err != nil {
			if out.Note == "" {
				out.Note = "setup: " + err.Error()
			}
			return
		}
		conn.OnData(func([]byte) { clientReplies++ })
		_ = conn.Send([]byte("one"))
		l.SetTimeout(idleTimeout+17*time.Millisecond, func() { _ = conn.Send([]byte("two")) })
		l.SetTimeout(idleTimeout+20*time.Millisecond, func() { _ = conn.Send([]byte("three")) })
		WaitUntil(l, 35*time.Millisecond, 8*time.Millisecond, 10,
			func() bool { return clientReplies >= 3 || out.Manifested },
			func(bool) {
				conn.Close()
				for _, s := range free {
					s.conn.Close()
				}
				free = nil
				frontLn.Close(nil)
				backendLn.Close(nil)
			})
	})

	AddTimerNoise(l, 1500*time.Microsecond, 50*time.Millisecond)
	cfg.AddFSNoise(l, cfg.Seed+7, 2*time.Millisecond, 35*time.Millisecond)
	if err := l.Run(); err != nil {
		return Outcome{Note: "run: " + err.Error()}
	}
	_ = requestsDone
	return out
}
