//go:build race

package testlib

// Race reports whether the race detector is on. Allocation guards read
// it: under the detector a sync.Pool drops a quarter of what is put back,
// so what a pooled path allocates in bytes is not what it allocates
// without it.
const Race = true
