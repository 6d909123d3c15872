package main

import "time"

// The benchmark measures wall time by definition, but it lives in a module
// whose analyzer (internal/lint, check "wallclock") bans wall-clock reads
// outside the allowlisted real-time and driver packages. These three
// functions are the benchmark's only clock reads, so the three reasoned
// ignores below are the whole exemption.

func now() time.Time {
	return time.Now() //calint:ignore wallclock the benchmark harness measures wall time; no protocol state depends on it
}

func since(t time.Time) time.Duration {
	return time.Since(t) //calint:ignore wallclock the benchmark harness measures wall time; no protocol state depends on it
}

func sleep(d time.Duration) {
	time.Sleep(d) //calint:ignore wallclock models the WAL device's fsync time; no protocol state depends on it
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
