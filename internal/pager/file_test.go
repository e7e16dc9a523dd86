package pager

import (
	"io"
	"testing"
)

// TestMemFileGrowsZeroed: reads past the end report io.EOF with what
// they got, and every byte a write or Truncate adds past the end reads
// as zero — also the bytes a shrinking Truncate left in capacity.
func TestMemFileGrowsZeroed(t *testing.T) {
	f := NewMemFile()
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 0); n != 0 || err != io.EOF {
		t.Fatalf("read of an empty file: %d, %v", n, err)
	}
	if _, err := f.Write([]byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ReadAt(buf, 8); n != 0 || err != io.EOF {
		t.Fatalf("read past the end: %d, %v", n, err)
	}
	if n, err := f.ReadAt(buf, 4); n != 2 || err != io.EOF || string(buf[:n]) != "ef" {
		t.Fatalf("short read: %d %q, %v", n, buf[:n], err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("z"), 5); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(8); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if n, err := f.ReadAt(got, 0); n != 8 || err != nil {
		t.Fatalf("whole read: %d, %v", n, err)
	}
	if want := "ab\x00\x00\x00z\x00\x00"; string(got) != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
	if size, err := f.Seek(0, io.SeekEnd); size != 8 || err != nil {
		t.Fatalf("size %d, %v", size, err)
	}
	if _, err := f.Write([]byte("!")); err != nil {
		t.Fatal(err)
	}
	if n, err := f.ReadAt(got[:1], 8); n != 1 || got[0] != '!' {
		t.Fatalf("Write did not append: %d %q, %v", n, got[:1], err)
	}
}
