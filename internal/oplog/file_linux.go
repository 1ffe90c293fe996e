//go:build linux

package oplog

import (
	"errors"
	"os"
	"syscall"
)

// allocate extends f from `from` to `to` bytes with fallocate(2) mode 0, so
// the writes that fill the range change neither the file size nor its block
// map. A filesystem without fallocate gets a Truncate: still durable, since
// fdatasync flushes the block allocation a write into the hole makes.
func allocate(f *os.File, from, to int64) error {
	var err error
	for {
		err = syscall.Fallocate(int(f.Fd()), 0, from, to-from)
		if err != syscall.EINTR {
			break
		}
	}
	if errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOSYS) {
		return f.Truncate(to)
	}
	if err != nil {
		return &os.PathError{Op: "fallocate", Path: f.Name(), Err: err}
	}
	return nil
}

// datasync flushes f's data and the metadata needed to read it back, with
// fdatasync(2): not the timestamps a full fsync also commits.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
