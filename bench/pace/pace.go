// Package pace schedules and paces open-loop arrivals for metis-bench.
// The schedule is a pure function of the seed; the pacer sleeps a
// locked OS thread with nanosleep under a 1 µs timer slack, so a send leaves
// within a few microseconds of its due time instead of the 0.6–1 ms that
// time.Sleep overshoots by on a loaded host.
package pace

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// Poisson returns the due offsets of n arrivals of a Poisson process with
// the given mean rate (arrivals per second), drawn from seed. The same seed,
// rate and n always give the same sequence.
func Poisson(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	due := make([]time.Duration, n)
	var t float64
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * 1e9)
	}
	return due
}

// prSetTimerSlack is PR_SET_TIMERSLACK from <linux/prctl.h>.
const prSetTimerSlack = 29

// Pacer sleeps until due instants on one OS thread. Create it on the
// goroutine that will call SleepUntil and Close it there.
type Pacer struct{}

// NewPacer locks the calling goroutine to its OS thread and sets that
// thread's timer slack to 1 µs, so nanosleep wakes on time rather than up to
// the default 50 µs late.
func NewPacer() *Pacer {
	runtime.LockOSThread()
	// Best effort: without the slack the pacer is still correct, only later;
	// metis-bench reports how late it ran either way.
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
	return &Pacer{}
}

// SleepUntil blocks until t (returning at once if t has passed).
func (p *Pacer) SleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (a signal during the sleep) just loops to sleep the rest.
		syscall.Nanosleep(&ts, nil)
	}
}

// Close releases the OS thread.
func (p *Pacer) Close() { runtime.UnlockOSThread() }
