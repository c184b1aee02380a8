//go:build race

package core

// raceEnabled reports a -race build: there sync.Pool drops a quarter of its
// Puts on purpose, so "a pooled object is never reallocated" cannot be
// asserted by counting allocations.
const raceEnabled = true
