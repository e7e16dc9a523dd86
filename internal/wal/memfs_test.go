package wal

import (
	"bytes"
	"io"
	"io/fs"
	"maps"
	"os"
	"slices"
	"testing"

	"spatialanon/internal/pager"
)

// memFS is a store directory held in memory that remembers what a power
// cut would leave of it: each file's bytes as of its last Sync, and the
// names as of the last Sync of the directory. A crash test runs a store
// on one and recovers from an image of it (image).
type memFS struct {
	names  map[string]*memFile // the directory as it stands
	synced map[string]*memFile // the directory as of its last Sync
}

// memFile is one file of a memFS: a pager.NewMemFile and its bytes as of
// its last Sync. Every handle on the file is the file itself.
type memFile struct {
	pager.File
	synced []byte
}

func (f *memFile) Sync() error {
	f.synced = f.bytes()
	return nil
}

// bytes returns a copy of the file's bytes as they stand.
func (f *memFile) bytes() []byte {
	n, _ := f.Seek(0, io.SeekEnd)
	b := make([]byte, n)
	f.ReadAt(b, 0)
	return b
}

// memDir is the directory of a memFS opened as a file: its Sync makes
// the names as they stand durable.
type memDir struct {
	pager.File
	fs *memFS
}

func (d memDir) Sync() error {
	d.fs.synced = maps.Clone(d.fs.names)
	return nil
}

func (d memDir) Close() error { return nil }

func newMemFS() *memFS {
	return &memFS{names: map[string]*memFile{}, synced: map[string]*memFile{}}
}

func (m *memFS) OpenFile(name string, flag int) (pager.File, error) {
	if name == "" {
		return memDir{fs: m}, nil
	}
	f, ok := m.names[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		f = &memFile{File: pager.NewMemFile()}
		m.names[name] = f
	case flag&os.O_TRUNC != 0:
		f.Truncate(0)
	}
	return f, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	f, ok := m.names[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.names, oldname)
	m.names[newname] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	if _, ok := m.names[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.names, name)
	return nil
}

// read returns the bytes of the named file as they stand, nil if there is
// none.
func (m *memFS) read(name string) []byte {
	if f, ok := m.names[name]; ok {
		return f.bytes()
	}
	return nil
}

// files returns what a crash leaves, file name to bytes: after process
// death every file as it stands; after power loss only the bytes each file
// held at its last Sync, under the names of the last directory Sync.
func (m *memFS) files(powerLoss bool) map[string][]byte {
	out := make(map[string][]byte)
	if !powerLoss {
		for name, f := range m.names {
			out[name] = f.bytes()
		}
		return out
	}
	for name, f := range m.synced {
		out[name] = slices.Clone(f.synced)
	}
	return out
}

// memFSOf returns a memFS holding files, every byte and name synced.
func memFSOf(files map[string][]byte) *memFS {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	slices.Sort(names)
	m := newMemFS()
	for _, name := range names {
		f, _ := m.OpenFile(name, os.O_CREATE)
		f.Write(files[name])
		f.Sync()
	}
	m.synced = maps.Clone(m.names)
	return m
}

// crashImage is a file system as a crash left it, and the name of the
// crash: "process-death" or "power-loss".
type crashImage struct {
	name string
	fs   *memFS
}

// images returns what a crash of a store on m leaves to recover from:
// the process-death image, then the power-loss image unless it is
// byte-identical to the first.
func (m *memFS) images() []crashImage {
	death, power := m.files(false), m.files(true)
	out := []crashImage{{"process-death", memFSOf(death)}}
	if !maps.EqualFunc(death, power, bytes.Equal) {
		out = append(out, crashImage{"power-loss", memFSOf(power)})
	}
	return out
}

// TestMemFSImages pins the memory file system's crash model, one rule a
// row: synced bytes survive power loss, unsynced writes are dropped, a
// rename without a directory sync is lost, and process death keeps
// everything.
func TestMemFSImages(t *testing.T) {
	write := func(m *memFS, name, data string, sync bool) {
		f, err := m.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_APPEND)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte(data))
		if sync {
			f.Sync()
		}
	}
	syncDir := func(m *memFS) {
		d, _ := m.OpenFile("", os.O_RDONLY)
		d.Sync()
	}
	for _, tc := range []struct {
		name      string
		run       func(m *memFS)
		powerLoss bool
		want      map[string]string
	}{
		{"synced bytes survive power loss", func(m *memFS) {
			write(m, "a", "xy", true)
			syncDir(m)
		}, true, map[string]string{"a": "xy"}},
		{"unsynced writes are dropped", func(m *memFS) {
			write(m, "a", "xy", true)
			syncDir(m)
			write(m, "a", "z", false)
		}, true, map[string]string{"a": "xy"}},
		{"a rename without a directory sync is lost", func(m *memFS) {
			write(m, "a", "old", true)
			write(m, "b", "new", true)
			syncDir(m)
			m.Rename("b", "a")
		}, true, map[string]string{"a": "old", "b": "new"}},
		{"process death keeps everything", func(m *memFS) {
			write(m, "a", "old", true)
			write(m, "b", "new", false)
			m.Rename("b", "a")
			write(m, "a", "er", false)
		}, false, map[string]string{"a": "newer"}},
	} {
		m := newMemFS()
		tc.run(m)
		got := m.files(tc.powerLoss)
		if !maps.EqualFunc(got, tc.want, func(b []byte, s string) bool { return string(b) == s }) {
			t.Errorf("%s: image %q, want %q", tc.name, got, tc.want)
		}
	}
}
