package core

// The maintenance loop: the engine's one background goroutine. The
// free-space watchdog and the integrity scrub are duties on its fixed list,
// each due on its own interval; the loop runs whichever falls due first.
// Open and Recover start it once recovery has finished, Close stops it and
// waits for the duty in flight. DESIGN.md "The maintenance loop" states the
// constraint one goroutine adds; pace keeps it.

import "time"

// duty is one job on the maintenance loop's list.
type duty struct {
	every time.Duration
	next  time.Time
	run   func()
}

// maintainer is a running maintenance loop. Only its goroutine touches the
// duties, the limiter and the timer.
type maintainer struct {
	db     *DB
	duties []*duty
	space  *duty    // the watchdog's duty (nil when off); pace runs its enter leg
	lim    *limiter // the scrub duty's pacing (nil = unthrottled)
	timer  *time.Timer
	stop   chan struct{}
	done   chan struct{}
}

// startMaintenance starts the loop over the duties o configures (the
// watchdog's as checked into db.watch); with none configured no goroutine is
// started.
func (db *DB) startMaintenance(o Options) {
	m := &maintainer{
		db:   db,
		lim:  newLimiter(o.ScrubRate),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	now := time.Now()
	add := func(every time.Duration, run func()) *duty {
		d := &duty{every: every, next: now.Add(every), run: run}
		m.duties = append(m.duties, d)
		return d
	}
	if db.watch.Probe != nil {
		m.space = add(db.watch.Interval, func() { db.probeSpace(true) })
	}
	if o.ScrubInterval > 0 {
		// A failed pass (transient I/O) retries next interval.
		add(o.ScrubInterval, func() { _, _ = db.ScrubPass(m.pace) })
	}
	if len(m.duties) == 0 {
		return
	}
	m.timer = time.NewTimer(time.Hour)
	m.timer.Stop()
	db.maint = m
	go m.loop()
}

func (m *maintainer) loop() {
	defer close(m.done)
	defer m.timer.Stop()
	for {
		due := m.duties[0]
		for _, d := range m.duties[1:] {
			if d.next.Before(due.next) {
				due = d
			}
		}
		if !m.sleep(time.Until(due.next)) {
			return
		}
		due.run()
		due.next = time.Now().Add(due.every)
	}
}

// pace is the scrub duty's throttle hook, called once per page and once per
// document with no lock held. It waits out the limiter's next slot and runs
// the watchdog's enter leg whenever that falls due meanwhile. A degraded
// engine has no enter leg to run: its watchdog falls overdue instead, so
// the loop runs it, recover leg included, first thing after the pass. Once
// Close has asked the loop to stop, pace no longer waits, so the pass in
// flight finishes unthrottled.
func (m *maintainer) pace() {
	slot := time.Now().Add(m.lim.delay())
	for {
		now := time.Now()
		watch := m.space != nil && !m.db.degraded.Load()
		if watch && !now.Before(m.space.next) {
			m.db.probeSpace(false)
			m.space.next = time.Now().Add(m.space.every)
		}
		if !now.Before(slot) {
			return
		}
		wake := slot
		if watch && m.space.next.Before(wake) {
			wake = m.space.next
		}
		if !m.sleep(time.Until(wake)) {
			return
		}
	}
}

// sleep waits d on the loop's one timer and reports false, without waiting,
// once the loop must stop. Every wait either drains the timer or ends the
// waiting for good, so Reset always finds it stopped or drained.
func (m *maintainer) sleep(d time.Duration) bool {
	select {
	case <-m.stop:
		return false
	default:
	}
	m.timer.Reset(d)
	select {
	case <-m.stop:
		return false
	case <-m.timer.C:
		return true
	}
}

// limiter spaces operations to a target rate using an accumulated deadline:
// each operation reserves the slot one interval after the previous one, so
// bursts borrow from idle time instead of being lost to per-operation
// rounding. The scrub duty waits for its slots on the loop's timer (pace),
// a one-shot Scrubber pass sleeps (wait).
type limiter struct {
	interval time.Duration
	next     time.Time
}

// newLimiter returns a limiter for rate operations per second, nil (no
// limit) when rate <= 0.
func newLimiter(rate int) *limiter {
	if rate <= 0 {
		return nil
	}
	return &limiter{interval: time.Second / time.Duration(rate)}
}

// delay reserves the next slot and returns how long until it; 0 on a nil
// limiter.
func (l *limiter) delay() time.Duration {
	if l == nil {
		return 0
	}
	now := time.Now()
	if l.next.Before(now) {
		l.next = now
	}
	l.next = l.next.Add(l.interval)
	return l.next.Sub(now)
}

func (l *limiter) wait() { time.Sleep(l.delay()) }
