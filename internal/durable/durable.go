// Package durable writes small files so that they survive power loss, not
// only process death.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data so that a crash leaves either the old
// contents or the new: write a temp file beside it, fsync it, rename it over
// path, fsync the directory. Only after the directory fsync is the rename
// itself on disk, so its error is returned too.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = tf.Write(data)
	if err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
