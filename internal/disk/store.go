package disk

import (
	"fmt"
	"sort"

	"onepass/internal/sim"
)

// Store is a local file system on one device. It holds real file contents
// in memory while charging device time for every access, so the engines can
// write intermediate runs, read them back, and merge them with faithful I/O
// accounting.
type Store struct {
	dev   *Device
	files map[string]*File
}

// NewStore returns an empty store backed by dev.
func NewStore(dev *Device) *Store {
	return &Store{dev: dev, files: make(map[string]*File)}
}

// Device returns the backing device.
func (s *Store) Device() *Device { return s.dev }

// File is a stored byte sequence.
type File struct {
	name string
	data []byte
	// discard indicates a sink file: sizes are tracked and I/O charged, but
	// contents are dropped to bound host memory for large benchmark runs.
	discard bool
	size    int64
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Data returns the raw retained contents (nil for discard files). Callers
// are responsible for charging device time via Store read methods; Data
// itself is free, mirroring data already resident in the page cache.
func (f *File) Data() []byte { return f.data }

// Size returns the file size in bytes.
func (f *File) Size() int64 { return f.size }

// Create makes (or truncates) a file. If discard is true the contents are
// not retained — used for final job output in benchmark sink mode.
func (s *Store) Create(name string, discard bool) *File {
	f := &File{name: name, discard: discard}
	s.files[name] = f
	return f
}

// Append writes data to the end of f, charging sequential device time.
func (s *Store) Append(p *sim.Proc, f *File, data []byte) {
	s.dev.Write(p, int64(len(data)), true)
	f.size += int64(len(data))
	if !f.discard {
		f.data = append(f.data, data...)
	}
}

// Put writes data as the whole contents of the still-empty file f at the
// same device charge as Append, but adopts the slice instead of copying it:
// the caller built data for this file (or shares it read-only, as the hash
// engine's push chunks share their map-output frame) and nobody may write
// through it afterwards. Capacity is clipped, so a later Append reallocates
// rather than growing into the caller's backing array.
func (s *Store) Put(p *sim.Proc, f *File, data []byte) {
	if f.size != 0 {
		panic(fmt.Sprintf("disk: Put on non-empty file %q", f.name))
	}
	s.dev.Write(p, int64(len(data)), true)
	f.size = int64(len(data))
	if !f.discard {
		f.data = data[:len(data):len(data)]
	}
}

// Open returns the named file.
func (s *Store) Open(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("disk: file %q not found", name)
	}
	return f, nil
}

// Delete removes the named file and frees its contents.
func (s *Store) Delete(name string) {
	delete(s.files, name)
}

// Names returns all file names, sorted.
func (s *Store) Names() []string {
	out := make([]string, 0, len(s.files))
	for n := range s.files {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Reader streams a file in buffered chunks. Each buffer refill charges a
// random read against the device: this is the access pattern of a k-way
// merge pulling from many runs at once.
type Reader struct {
	store   *Store
	file    *File
	pos     int64
	bufEnd  int64
	bufSize int64
}

// NewReader returns a streaming reader over f with the given buffer size.
func (s *Store) NewReader(f *File, bufSize int64) *Reader {
	if bufSize <= 0 {
		bufSize = 1 << 20
	}
	if f.discard {
		panic("disk: cannot read a discard (sink) file")
	}
	return &Reader{store: s, file: f, bufSize: bufSize}
}

// Next returns the next n bytes (fewer at EOF; nil when exhausted),
// charging a device read whenever the buffer needs refilling.
func (r *Reader) Next(p *sim.Proc, n int64) []byte {
	if r.pos >= r.file.size {
		return nil
	}
	if r.pos+n > r.file.size {
		n = r.file.size - r.pos
	}
	// Refill the window as many times as needed to cover [pos, pos+n).
	for r.bufEnd < r.pos+n {
		fill := r.bufSize
		if r.bufEnd+fill > r.file.size {
			fill = r.file.size - r.bufEnd
		}
		r.store.dev.Read(p, fill, false)
		r.bufEnd += fill
	}
	out := r.file.data[r.pos : r.pos+n]
	r.pos += n
	return out
}
