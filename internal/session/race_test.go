//go:build race

package session

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop objects at random, so exact allocation counts are not meaningful.
const raceEnabled = true
