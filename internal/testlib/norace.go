//go:build !race

package testlib

// Race reports whether the race detector is on (see race.go).
const Race = false
