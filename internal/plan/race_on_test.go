//go:build race

package plan

// raceEnabled reports a -race build, where timing bounds do not hold.
const raceEnabled = true
