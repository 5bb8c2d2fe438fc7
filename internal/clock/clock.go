// Package clock provides the injectable time source the protocol packages
// are required to use. The gqsvet clockuse analyzer bans raw time.Now,
// time.Sleep and the timer constructors inside internal/{consensus, smr,
// lease, qaf, viewsync}: every time-dependent protocol decision (lease
// validity windows, view timeouts, batch windows, renewal intervals) must
// flow through a Clock so that tests can substitute a Fake and drive time
// deterministically. Real is the production implementation; it delegates to
// the time package and costs one interface call per reading — no
// allocations, so hot paths (the leased read's validity check) keep their
// zero-alloc profile.
package clock

import "time"

// Clock is the injectable time source. Now is Go's usual hybrid reading —
// wall clock plus monotonic component — so durations computed from it are
// immune to wall-clock steps. The protocol packages compare readings taken
// on the same process for every safety decision. The one reading that
// crosses processes is qaf's liveness floor: the Propagator raises logical
// clocks to the wall time in microseconds while a peer is silent, so mute
// processes keep pace; clocks that are not in step cost latency there,
// never safety.
type Clock interface {
	// Now returns the current time (monotonic-backed on Real).
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Until returns the duration until t (negative if t has passed).
	Until(t time.Time) time.Duration
	// After returns a channel that delivers one reading once d has
	// elapsed. The underlying timer is never reclaimed early; prefer
	// NewTimer when the wait may be abandoned.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that delivers one reading on C after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc schedules f to run once d has elapsed, on its own
	// goroutine (Real) or during the Advance that passes the deadline
	// (Fake).
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is the Clock analogue of *time.Timer. C returns the delivery
// channel (nil for AfterFunc timers); Stop and Reset follow the
// time.Timer contract, including its caveat that Stop does not drain an
// already-delivered tick.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Real is the production Clock, backed by the time package.
var Real Clock = realClock{}

// Or returns c, or Real when c is nil — the idiom option structs use to
// default their Clock field.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Until(t time.Time) time.Duration        { return time.Until(t) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) NewTimer(d time.Duration) Timer         { return realTimer{time.NewTimer(d)} }
func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time        { return rt.t.C }
func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }
