// Package memory implements the VM's word-addressed shared memory as a set
// of mapped segments with access protection. Accesses outside any segment
// raise a Fault, which the machine surfaces as a segmentation fault — the
// crash symptom of several of the paper's Table 4 benchmarks (sort,
// Cppcheck, PBZIP2, tac, Squid2, Mozilla-JS1, MySQL1, PBZIP3).
//
// Addresses are in 64-bit words; the data cache translates them to byte
// addresses (one word = 8 bytes) when forming cache blocks.
//
// Segments are paged: a trial pays only for the pages it writes, so a
// thread's 16K-word stack costs a page table until the thread touches it.
package memory

import "fmt"

// Fault describes an invalid memory access.
type Fault struct {
	// Addr is the faulting word address.
	Addr int64
	// Write reports whether the access was a store.
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("segmentation fault: invalid %s at word address %d", kind, f.Addr)
}

// pageWords is the page size in words. A page is allocated on its first
// non-zero store; an absent page reads as zero.
const pageWords = 512

// Segment is a contiguous mapped region.
type Segment struct {
	// Name identifies the segment in diagnostics ("globals", "stack0"...).
	Name string
	// Base is the first mapped word address.
	Base int64
	// Size is the segment length in words; it spans [Base, Base+Size).
	Size int64

	pages []*[pageWords]int64
}

// Contains reports whether the word address falls inside the segment.
func (s *Segment) Contains(addr int64) bool {
	return addr >= s.Base && addr < s.Base+s.Size
}

// Memory is a collection of non-overlapping segments.
type Memory struct {
	segs []*Segment
}

// New returns an empty address space.
func New() *Memory { return &Memory{} }

// Map adds a zeroed segment of the given size; no page is allocated yet.
// It returns an error if the new segment would overlap an existing one.
func (m *Memory) Map(name string, base, size int64) (*Segment, error) {
	if size < 0 {
		return nil, fmt.Errorf("memory: map %s: negative size %d", name, size)
	}
	for _, s := range m.segs {
		if base < s.Base+s.Size && s.Base < base+size {
			return nil, fmt.Errorf("memory: map %s [%d,%d) overlaps %s [%d,%d)",
				name, base, base+size, s.Name, s.Base, s.Base+s.Size)
		}
	}
	seg := &Segment{Name: name, Base: base, Size: size,
		pages: make([]*[pageWords]int64, (size+pageWords-1)/pageWords)}
	m.segs = append(m.segs, seg)
	return seg, nil
}

// SegmentAt returns the segment containing addr, or nil.
func (m *Memory) SegmentAt(addr int64) *Segment {
	for _, s := range m.segs {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// Load reads the word at addr.
func (m *Memory) Load(addr int64) (int64, error) {
	s := m.SegmentAt(addr)
	if s == nil {
		return 0, &Fault{Addr: addr}
	}
	off := addr - s.Base
	if p := s.pages[off/pageWords]; p != nil {
		return p[off%pageWords], nil
	}
	return 0, nil
}

// Store writes the word at addr.
func (m *Memory) Store(addr, val int64) error {
	s := m.SegmentAt(addr)
	if s == nil {
		return &Fault{Addr: addr, Write: true}
	}
	off := addr - s.Base
	p := s.pages[off/pageWords]
	if p == nil {
		if val == 0 {
			return nil // an absent page already reads as zero
		}
		p = new([pageWords]int64)
		s.pages[off/pageWords] = p
	}
	p[off%pageWords] = val
	return nil
}

// Segments returns the mapped segments (not a copy; callers must not
// mutate the slice).
func (m *Memory) Segments() []*Segment { return m.segs }
