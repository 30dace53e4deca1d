package pdl

import (
	"fmt"
	"time"

	"falcon/internal/falcon/wire"
	"falcon/internal/sim"
)

// Timer management. The PDL owns four per-connection timers: RTO, TLP,
// RACK wakeup and pacing release. Pacing is a plain event. The other three
// move on almost every ACK — progress pushes the RTO and TLP deadlines
// later, a new SACK can pull the RACK wakeup earlier — so each is a
// lazyTimer:
//
//   - deadline is when the timer's body must run (zero = stopped). Moving
//     it is a plain store.
//   - At most one event per timer is pending. It surfaces at fireAt, and
//     fireAt <= deadline whenever a deadline is set: a deadline moved
//     earlier than the pending event reschedules it; one moved later only
//     updates the field.
//   - An event that surfaces before the deadline re-arms at exactly the
//     deadline and does nothing else; one that surfaces at the deadline
//     clears it and runs the body.
//
// The body therefore runs at the deadline, with the connection state of
// that instant, and an ACK that only pushes a deadline later costs no
// scheduler work at all.

// timerKind discriminates the four pooled timer callbacks.
type timerKind uint8

const (
	timerRTO timerKind = iota
	timerTLP
	timerRack
	timerPace
)

// timerAction is a pooled sim.Action for one of the connection's timers.
// The four instances live inside Conn, so arming a timer never allocates.
type timerAction struct {
	c    *Conn
	kind timerKind
}

func (a *timerAction) RunAction() {
	c := a.c
	switch a.kind {
	case timerPace:
		c.trySend()
	case timerRTO:
		if c.rtoTimer.due(c.sim) {
			c.onRTO()
		}
	case timerTLP:
		if c.tlpTimer.due(c.sim) {
			c.onTLP()
		}
	case timerRack:
		if c.rackTimer.due(c.sim) {
			c.runRack(c.sim.Now())
		}
	}
}

// lazyTimer is one deadline timer (see the discipline above).
type lazyTimer struct {
	deadline sim.Time
	fireAt   sim.Time
	ev       sim.Timer
	act      timerAction
}

// set moves the deadline to t, rescheduling the pending event only when t
// is earlier than it.
func (lt *lazyTimer) set(s *sim.Simulator, t sim.Time) {
	lt.deadline = t
	if lt.ev.Pending() {
		if lt.fireAt <= t {
			return
		}
		lt.ev.Stop()
	}
	lt.ev = s.AtAction(t, &lt.act)
	lt.fireAt = t
}

// due runs when the event surfaces and reports whether the body runs now:
// at the deadline it clears the deadline and says yes; before it, it
// re-arms at the deadline and says no.
func (lt *lazyTimer) due(s *sim.Simulator) bool {
	d := lt.deadline
	if d == 0 {
		return false
	}
	if s.Now() < d {
		lt.ev = s.AtAction(d, &lt.act)
		lt.fireAt = d
		return false
	}
	lt.deadline = 0
	return true
}

// stop cancels the timer outright.
func (lt *lazyTimer) stop() {
	lt.ev.Stop()
	lt.deadline = 0
}

// CheckTimers reports the first breach of the discipline above on the RTO,
// TLP and RACK timers, or "" when it holds: every set deadline is not yet
// past and has its event pending at or before it. Called between events
// (internal/testkit's checker does so on every delivery), a breach means a
// timer body ran late or will never run.
func (c *Conn) CheckTimers() string {
	now := c.sim.Now()
	for i, lt := range [...]*lazyTimer{&c.rtoTimer, &c.tlpTimer, &c.rackTimer} {
		name := [...]string{"RTO", "TLP", "RACK"}[i]
		switch d := lt.deadline; {
		case d == 0:
		case d < now:
			return fmt.Sprintf("%s deadline %v already passed at %v", name, d, now)
		case !lt.ev.Pending() || lt.fireAt > d:
			return fmt.Sprintf("%s deadline %v has no event pending at or before it (pending=%v fireAt=%v)",
				name, d, lt.ev.Pending(), lt.fireAt)
		}
	}
	return ""
}

// rtoDelay is the current backed-off RTO interval.
func (c *Conn) rtoDelay() time.Duration {
	d := c.rto << uint(c.rtoBackoff)
	if d > maxRTOBackoff {
		d = maxRTOBackoff
	}
	return d
}

// armTimers ensures RTO and TLP supervision while data is outstanding.
func (c *Conn) armTimers() {
	if c.Outstanding() == 0 {
		c.rtoTimer.deadline, c.tlpTimer.deadline = 0, 0
		return
	}
	if c.rtoTimer.deadline == 0 {
		c.rtoTimer.set(c.sim, c.sim.Now().Add(c.rtoDelay()))
	}
	if c.cfg.Recovery == RecoveryRackTLP && c.tlpTimer.deadline == 0 {
		c.tlpTimer.set(c.sim, c.sim.Now().Add(c.tlpTimeout))
	}
}

// resetTimersOnProgress is called when an ACK acknowledges new data: the
// backoff resets and the RTO and TLP deadlines restart from now.
func (c *Conn) resetTimersOnProgress() {
	c.rtoBackoff = 0
	c.consecRTOs = 0
	now := c.sim.Now()
	c.lastAckProgress = now
	if c.Outstanding() == 0 {
		c.rtoTimer.deadline, c.tlpTimer.deadline = 0, 0
		return
	}
	c.rtoTimer.set(c.sim, now.Add(c.rtoDelay()))
	if c.cfg.Recovery == RecoveryRackTLP {
		c.tlpTimer.set(c.sim, now.Add(c.tlpTimeout))
	}
}

// nackRetryEvent is the pooled backoff retransmit for a resource-NACKed
// packet. It names the packet by (space, psn) rather than holding the
// scoreboard slot, and retransmit does nothing once the PSN is no longer
// in flight.
type nackRetryEvent struct {
	c     *Conn
	space wire.Space
	psn   uint32
}

func (ev *nackRetryEvent) RunAction() {
	c, space, psn := ev.c, ev.space, ev.psn
	c.nackEvents.Put(ev)
	c.retransmit(space, psn, retxNackBackoff)
}

// scheduleNackRetry arms the backoff retransmit for a parked packet using a
// pooled event.
func (c *Conn) scheduleNackRetry(space wire.Space, psn uint32, backoff time.Duration) {
	ev := c.nackEvents.Get()
	ev.c, ev.space, ev.psn = c, space, psn
	c.sim.AtAction(c.sim.Now().Add(backoff), ev)
}
