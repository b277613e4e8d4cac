package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesContents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "term")
	for _, want := range []string{"first contents\n", "2\n"} {
		if err := WriteFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("contents %q, want %q", got, want)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "term" {
		t.Fatalf("directory holds %v, want only term (no .tmp left behind)", entries)
	}
}

func TestWriteFileMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "term")
	if err := WriteFile(path, []byte("1\n")); err == nil {
		t.Fatal("WriteFile into a missing directory reported success")
	}
}
