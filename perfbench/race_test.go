//go:build race

package main

// raceEnabled reports a -race build, whose slowdown pushes placementd
// replies past the latency limit.
const raceEnabled = true
