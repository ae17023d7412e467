//go:build !race

package mpfr

const raceEnabled = false
