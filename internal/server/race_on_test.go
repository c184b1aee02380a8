//go:build race

package server

// raceEnabled reports a -race build, where the serving oracle runs its
// shorter seed set.
const raceEnabled = true
