//go:build race

// Package race reports whether the race detector is compiled in, so
// tests that count allocations can skip under -race, where sync.Pool
// drops objects at random and instrumentation allocates.
package race

// Enabled is true when built with -race.
const Enabled = true
