//go:build !linux

package oplog

import "os"

// allocate extends f from `from` to `to` bytes with Truncate.
func allocate(f *os.File, from, to int64) error { return f.Truncate(to) }

// datasync flushes f with File.Sync.
func datasync(f *os.File) error { return f.Sync() }
