//go:build !linux

package core

import "os"

// fdatasync falls back to fsync where fdatasync is not available.
func fdatasync(f *os.File) error { return f.Sync() }
