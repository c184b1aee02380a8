//go:build race

package core

// RaceEnabled reports a -race build, where the differential oracle runs its
// shorter seed set and TestMatcherPooled does not count allocations.
const RaceEnabled = true
