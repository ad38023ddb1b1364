// This file allowlists the wall-clock ban file-wide — the shape a
// _test.go timing helper uses. A directive before the package clause
// covers every line of the file.
//
//trustlint:allow nowallclock
package spfix

import "time"

// Elapsed would violate nowallclock three times without the file-wide
// allow above.
func Elapsed(f func()) time.Duration {
	start := time.Now()
	f()
	time.Sleep(time.Millisecond)
	return time.Since(start)
}
