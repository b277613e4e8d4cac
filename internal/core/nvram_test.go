package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"clio/internal/faults"
	"clio/internal/wodev"
)

const nvramName = "nvram.clio"

func TestMemNVRAMRoundTrip(t *testing.T) {
	nv := NewMemNVRAM()
	if g, img, err := nv.Load(); err != nil || img != nil || g != 0 {
		t.Fatalf("empty load: %d %v %v", g, img, err)
	}
	if err := nv.Store(7, []byte("block image")); err != nil {
		t.Fatal(err)
	}
	g, img, err := nv.Load()
	if err != nil || g != 7 || string(img) != "block image" {
		t.Fatalf("load: %d %q %v", g, img, err)
	}
	// Load returns a copy.
	img[0] = 'X'
	if _, img2, _ := nv.Load(); string(img2) != "block image" {
		t.Error("Load aliases internal buffer")
	}
	if err := nv.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, img, _ := nv.Load(); img != nil {
		t.Error("Clear did not clear")
	}
}

func TestFileNVRAMRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	if g, img, err := nv.Load(); err != nil || img != nil || g != 0 {
		t.Fatalf("missing file load: %d %v %v", g, img, err)
	}
	if err := nv.Store(42, []byte("staged tail block")); err != nil {
		t.Fatal(err)
	}
	// A fresh handle (new process) sees the staged image.
	nv2 := NewFileNVRAM(path)
	g, img, err := nv2.Load()
	if err != nil || g != 42 || string(img) != "staged tail block" {
		t.Fatalf("reload: %d %q %v", g, img, err)
	}
	// Replacement.
	if err := nv2.Store(43, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if g, img, _ := nv2.Load(); g != 43 || string(img) != "newer" {
		t.Errorf("after replace: %d %q", g, img)
	}
	if err := nv2.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, img, _ := nv2.Load(); img != nil {
		t.Error("Clear left an image")
	}
	if err := nv2.Clear(); err != nil {
		t.Error("double Clear errored")
	}
}

// tearSlot flips a byte inside the record a FileNVRAM slot holds, as a
// write torn by a crash would leave it.
func tearSlot(t *testing.T, path string, slot int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [nvHeader]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		t.Fatal(err)
	}
	off := nvPage + int64(slot)*int64(binary.LittleEndian.Uint32(hdr[8:])) + nvRecHead + 2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestFileNVRAMTornStore tears slots of the sidecar: a torn store never
// yields garbage. The tail falls back to the previous image while one tail
// slot is intact, and a torn staged seal is skipped.
func TestFileNVRAMTornStore(t *testing.T) {
	t.Run("newest tail", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		for g, img := range []string{"first image", "second image"} {
			if err := nv.Store(g+1, []byte(img)); err != nil {
				t.Fatal(err)
			}
		}
		nv.Close()
		tearSlot(t, path, 1) // the second store went to the other tail slot
		g, img, err := NewFileNVRAM(path).Load()
		if err != nil || g != 1 || string(img) != "first image" {
			t.Errorf("torn newest tail: %d %q %v, want the previous image", g, img, err)
		}
	})
	t.Run("both tails", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		for g, img := range []string{"first image", "second image"} {
			if err := nv.Store(g+1, []byte(img)); err != nil {
				t.Fatal(err)
			}
		}
		nv.Close()
		tearSlot(t, path, 0)
		tearSlot(t, path, 1)
		if g, img, err := NewFileNVRAM(path).Load(); err != nil || img != nil || g != 0 {
			t.Errorf("two torn tails: %d %q %v, want empty", g, img, err)
		}
	})
	t.Run("staged seal", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		if err := nv.StoreSealed(5, []byte("sealed five")); err != nil {
			t.Fatal(err)
		}
		if err := nv.StoreSealed(6, []byte("sealed six")); err != nil {
			t.Fatal(err)
		}
		nv.Close()
		tearSlot(t, path, nvTailSlots+1) // seal 6's slot
		gs, imgs, err := NewFileNVRAM(path).LoadSealed()
		if err != nil || len(gs) != 1 || gs[0] != 5 || string(imgs[0]) != "sealed five" {
			t.Errorf("torn staged seal: %v %q %v, want only seal 5", gs, imgs, err)
		}
	})
	t.Run("truncated file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "nv")
		nv := NewFileNVRAM(path)
		if err := nv.Store(1, []byte("good image")); err != nil {
			t.Fatal(err)
		}
		nv.Close()
		if err := os.Truncate(path, 4); err != nil {
			t.Fatal(err)
		}
		if _, img, err := NewFileNVRAM(path).Load(); err != nil || img != nil {
			t.Errorf("truncated file: img=%v err=%v, want empty", img, err)
		}
	})
}

// TestFileNVRAMRewritesInPlace pins the force path's file-system cost:
// stores, staged seals and drops rewrite slots of the one sidecar, so its
// inode never changes and the directory gains no entries.
func TestFileNVRAMRewritesInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nv")
	nv := NewFileNVRAM(path)
	defer nv.Close()
	img := make([]byte, 1024)
	if err := nv.Store(0, img); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		img[0] = byte(i)
		if err := nv.Store(i, img); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := nv.StoreSealed(i, img); err != nil {
			t.Fatal(err)
		}
		if err := nv.DropSealed(i); err != nil {
			t.Fatal(err)
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("the sidecar was replaced, not rewritten in place")
	}
	if now, _ := os.ReadDir(dir); len(now) != len(entries) {
		t.Errorf("directory holds %d entries, had %d", len(now), len(entries))
	}
	if g, got, err := nv.Load(); err != nil || g != 1000 || got[0] != byte(1000%256) {
		t.Errorf("Load after 1000 stores: %d %v", g, err)
	}
	if gs, _, err := nv.LoadSealed(); err != nil || len(gs) != 0 {
		t.Errorf("staged seals after drops: %v %v", gs, err)
	}
}

// TestFileNVRAMReopenAfterClose checks that a closed FileNVRAM reopens on
// the next call with its slot state rebuilt from the file.
func TestFileNVRAMReopenAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	if err := nv.StoreSealed(3, []byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := nv.Store(4, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	nv.Close()
	// Drop after reopen frees the slot the first handle wrote.
	if err := nv.DropSealed(3); err != nil {
		t.Fatal(err)
	}
	if err := nv.StoreSealed(5, []byte("five")); err != nil {
		t.Fatal(err)
	}
	if err := nv.Store(6, []byte("newer tail")); err != nil {
		t.Fatal(err)
	}
	nv.Close()
	nv2 := NewFileNVRAM(path)
	defer nv2.Close()
	gs, imgs, err := nv2.LoadSealed()
	if err != nil || len(gs) != 1 || gs[0] != 5 || string(imgs[0]) != "five" {
		t.Errorf("LoadSealed: %v %q %v, want only seal 5", gs, imgs, err)
	}
	if g, img, err := nv2.Load(); err != nil || g != 6 || string(img) != "newer tail" {
		t.Errorf("Load: %d %q %v", g, img, err)
	}
	if err := nv2.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, img, _ := NewFileNVRAM(path).Load(); img != nil {
		t.Error("Clear left an image")
	}
}

// TestFileNVRAMGrowsForLargerImage stores an image larger than the stride
// the file was created with: the file is rewritten with a larger stride and
// keeps what it held.
func TestFileNVRAMGrowsForLargerImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv")
	nv := NewFileNVRAM(path)
	defer nv.Close()
	if err := nv.StoreSealed(1, []byte("small seal")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 2*nvPage)
	if err := nv.Store(2, big); err != nil {
		t.Fatal(err)
	}
	if g, img, err := NewFileNVRAM(path).Load(); err != nil || g != 2 || !bytes.Equal(img, big) {
		t.Errorf("Load after growth: %d, %d bytes, %v", g, len(img), err)
	}
	if gs, imgs, err := NewFileNVRAM(path).LoadSealed(); err != nil || len(gs) != 1 || string(imgs[0]) != "small seal" {
		t.Errorf("LoadSealed after growth: %v %q %v", gs, imgs, err)
	}
}

// legacyRecord encodes one record of the sidecar layout before slots:
// global u64 | len u32 | image | crc32c, all little-endian.
func legacyRecord(global int, image []byte) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(global))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(image)))
	b = append(b, image...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

// writeLegacyNVRAM writes a MemNVRAM's contents as the legacy layout does:
// the tail in path, each staged seal in its own path.sNNNNNNNN file.
func writeLegacyNVRAM(t *testing.T, path string, nv *MemNVRAM) {
	t.Helper()
	g, img, _ := nv.Load()
	if img != nil {
		if err := os.WriteFile(path, legacyRecord(g, img), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gs, imgs, _ := nv.LoadSealed()
	for i, g := range gs {
		if err := os.WriteFile(fmt.Sprintf("%s.s%08d", path, g), legacyRecord(g, imgs[i]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileNVRAMUpgradesLegacyLayout reopens a store whose NVRAM was written
// in the legacy layout while a crash left a staged seal and a staged tail.
// The first open rewrites both into the slot layout and removes the legacy
// files, and recovery returns every acked entry exactly once.
func TestFileNVRAMUpgradesLegacyLayout(t *testing.T) {
	dev := wodev.NewMem(wodev.MemOptions{BlockSize: 256, Capacity: 1 << 12})
	mem := NewMemNVRAM()
	reg := faults.NewRegistry()
	opt := Options{BlockSize: 256, Degree: 16, CacheBlocks: -1, Now: lockedNow(), NVRAM: mem, Faults: reg}
	svc, err := New(dev, opt)
	if err != nil {
		t.Fatal(err)
	}
	id := mustCreate(t, svc, "/legacy")
	// The first pipelined device write crashes the sealer: its seal stays
	// staged, and the forced appends acked after it stage the tail.
	reg.EnableCrash(FaultSealWrite, 1)
	var acked []string
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("entry-%03d-padding-padding", i)
		if _, err := svc.Append(id, []byte(p), AppendOptions{Forced: true}); err != nil {
			break
		}
		acked = append(acked, p)
	}
	svc.Crash()
	gs, _, _ := mem.LoadSealed()
	if _, tail, _ := mem.Load(); len(gs) == 0 || tail == nil {
		t.Fatalf("crash left %d staged seals and tail %v; want both", len(gs), tail != nil)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, nvramName)
	writeLegacyNVRAM(t, path, mem)
	if err := os.WriteFile(path+".tmp", []byte("leftover"), 0o644); err != nil {
		t.Fatal(err)
	}
	opt.NVRAM, opt.Faults = NewFileNVRAM(path), nil
	svc2, err := Open([]wodev.Device{dev}, opt)
	if err != nil {
		t.Fatalf("reopen over legacy NVRAM: %v", err)
	}
	defer svc2.Close()
	if got := svc2.LastRecovery().StagedSeals; got != len(gs) {
		t.Errorf("StagedSeals = %d, want %d", got, len(gs))
	}
	if got := datas(readAll(t, svc2, "/legacy")); fmt.Sprint(got) != fmt.Sprint(acked) {
		t.Errorf("read back %d entries, want the %d acked ones exactly once", len(got), len(acked))
	}
	names, _ := os.ReadDir(dir)
	if len(names) != 1 || names[0].Name() != nvramName {
		t.Errorf("directory after upgrade: %v, want only %s", names, nvramName)
	}
	raw, err := os.ReadFile(path)
	if err != nil || binary.LittleEndian.Uint32(raw) != nvMagic {
		t.Errorf("sidecar not rewritten in the slot layout: %v", err)
	}
}
