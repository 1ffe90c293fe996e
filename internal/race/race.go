//go:build !race

// Package race reports whether the binary was built with the race detector.
// Allocation-count tests skip under it: the detector allocates on its own
// account and sync.Pool drops items at random there, so the counts they pin
// are meaningless.
package race

// Enabled is true when the race detector is compiled in.
const Enabled = false
