//go:build !race

package main

// raceEnabled relaxes the smoke test's zero-failure check under the race
// detector, whose instrumentation slows the runtime below the rate the
// edge-mix video schedule demands.
const raceEnabled = false
