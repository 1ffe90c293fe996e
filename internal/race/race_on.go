//go:build race

package race

// Enabled is true when the race detector is compiled in.
const Enabled = true
