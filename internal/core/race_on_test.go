//go:build race

package core

// RaceEnabled reports a -race build: there sync.Pool drops a quarter of its
// Puts on purpose, so "a pooled object is never reallocated" cannot be
// asserted by counting allocations, and the differential oracle runs its
// shorter seed set.
const RaceEnabled = true
