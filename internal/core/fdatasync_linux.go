package core

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data and the metadata needed to read it back,
// without the timestamp update fsync would also write.
func fdatasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}
