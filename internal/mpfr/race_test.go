//go:build race

package mpfr

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop objects at random, so exact allocation counts are not meaningful.
const raceEnabled = true
