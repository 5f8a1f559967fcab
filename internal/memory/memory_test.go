package memory

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMapAndAccess(t *testing.T) {
	m := New()
	if _, err := m.Map("globals", 4096, 16); err != nil {
		t.Fatalf("Map: %v", err)
	}
	if err := m.Store(4100, 42); err != nil {
		t.Fatalf("Store: %v", err)
	}
	v, err := m.Load(4100)
	if err != nil || v != 42 {
		t.Fatalf("Load = %d, %v", v, err)
	}
}

func TestNullPageFaults(t *testing.T) {
	m := New()
	if _, err := m.Map("globals", 4096, 16); err != nil {
		t.Fatal(err)
	}
	_, err := m.Load(0)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("Load(0) err = %v, want Fault", err)
	}
	if f.Write || f.Addr != 0 {
		t.Errorf("fault = %+v", f)
	}
	err = m.Store(3, 1)
	if !errors.As(err, &f) || !f.Write {
		t.Fatalf("Store(3) err = %v, want write Fault", err)
	}
	if !strings.Contains(err.Error(), "segmentation fault") {
		t.Errorf("fault message = %q", err)
	}
}

func TestOutOfSegmentFaults(t *testing.T) {
	m := New()
	if _, err := m.Map("g", 100, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(110); err == nil {
		t.Error("Load just past end should fault")
	}
	if _, err := m.Load(99); err == nil {
		t.Error("Load just before base should fault")
	}
	if _, err := m.Load(109); err != nil {
		t.Errorf("last word should be mapped: %v", err)
	}
}

func TestOverlapRejected(t *testing.T) {
	m := New()
	if _, err := m.Map("a", 100, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Map("b", 105, 10); err == nil {
		t.Error("overlapping map should fail")
	}
	if _, err := m.Map("c", 90, 10); err != nil {
		t.Errorf("adjacent map should succeed: %v", err)
	}
	if _, err := m.Map("d", 110, 0); err != nil {
		t.Errorf("empty map should succeed: %v", err)
	}
	if _, err := m.Map("e", 100, -1); err == nil {
		t.Error("negative size should fail")
	}
}

func TestSegmentAt(t *testing.T) {
	m := New()
	g, _ := m.Map("g", 100, 10)
	s, _ := m.Map("s", 1000, 10)
	if m.SegmentAt(105) != g {
		t.Error("SegmentAt(105) != g")
	}
	if m.SegmentAt(1000) != s {
		t.Error("SegmentAt(1000) != s")
	}
	if m.SegmentAt(500) != nil {
		t.Error("SegmentAt(500) should be nil")
	}
	if len(m.Segments()) != 2 {
		t.Errorf("Segments() = %d entries", len(m.Segments()))
	}
}

// Property: a store followed by a load of the same mapped address returns
// the stored value, independent of offset and value.
func TestStoreLoadQuick(t *testing.T) {
	m := New()
	const base, size = 4096, 1024
	if _, err := m.Map("g", base, size); err != nil {
		t.Fatal(err)
	}
	f := func(off uint16, val int64) bool {
		addr := base + int64(off%size)
		if err := m.Store(addr, val); err != nil {
			return false
		}
		got, err := m.Load(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: accesses outside every segment always fault and never mutate
// mapped state.
func TestFaultQuick(t *testing.T) {
	m := New()
	const base, size = 4096, 64
	if _, err := m.Map("g", base, size); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(base, 7); err != nil {
		t.Fatal(err)
	}
	f := func(raw int64) bool {
		addr := raw
		if addr >= base && addr < base+size {
			addr = base - 1 - (addr-base)%base // push it below the segment
		}
		if addr >= base && addr < base+size {
			return true // still inside; skip
		}
		if err := m.Store(addr, 99); err == nil {
			return false
		}
		if _, err := m.Load(addr); err == nil {
			return false
		}
		v, err := m.Load(base)
		return err == nil && v == 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPagedOracle drives random Map/Store/Load sequences through Memory and
// through a dense map-based model of the same address space, and requires
// identical values and faults at every step. Addresses cluster at segment
// edges and page boundaries, about half the stores write zero, and some
// accesses fall just outside a segment or into the gaps between them.
func TestPagedOracle(t *testing.T) {
	type region struct{ base, size int64 }
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		model := map[int64]int64{} // mapped word -> value
		var regions []region
		next := int64(rng.Intn(3 * pageWords))
		for i := 0; i < 1+rng.Intn(4); i++ {
			size := int64(rng.Intn(3 * pageWords))
			if _, err := m.Map("seg", next, size); err != nil {
				t.Fatalf("seed %d: Map: %v", seed, err)
			}
			regions = append(regions, region{next, size})
			for a := next; a < next+size; a++ {
				model[a] = 0
			}
			next += size + int64(rng.Intn(2*pageWords)) // gap: unmapped words
		}
		addr := func() int64 {
			r := regions[rng.Intn(len(regions))]
			var off int64
			switch rng.Intn(4) {
			case 0: // just outside either end
				off = []int64{-1, r.size}[rng.Intn(2)]
			case 1: // around a page boundary
				off = int64(rng.Intn(3))*pageWords + int64(rng.Intn(3)) - 1
			default:
				off = int64(rng.Intn(int(r.size) + 2))
			}
			return r.base + off
		}
		for step := 0; step < 2000; step++ {
			a := addr()
			want, mapped := model[a]
			if rng.Intn(2) == 0 {
				val := rng.Int63n(5) - 2 // zero about half the time
				if rng.Intn(3) == 0 {
					val = 0
				}
				err := m.Store(a, val)
				if mapped != (err == nil) {
					t.Fatalf("seed %d step %d: Store(%d) err = %v, mapped = %v", seed, step, a, err, mapped)
				}
				if mapped {
					model[a] = val
				}
				continue
			}
			got, err := m.Load(a)
			if mapped != (err == nil) {
				t.Fatalf("seed %d step %d: Load(%d) err = %v, mapped = %v", seed, step, a, err, mapped)
			}
			var f *Fault
			if !mapped && (!errors.As(err, &f) || f.Addr != a || f.Write) {
				t.Fatalf("seed %d step %d: Load(%d) fault = %v", seed, step, a, err)
			}
			if got != want {
				t.Fatalf("seed %d step %d: Load(%d) = %d, model %d", seed, step, a, got, want)
			}
		}
	}
}

// Reading a word no store has touched, or storing zero into a page that
// does not exist yet, must not allocate a page.
func TestUntouchedPagesFree(t *testing.T) {
	m := New()
	const base, runs = 4096, 100
	// AllocsPerRun makes one warm-up call before the measured ones, so
	// every call gets a page of its own.
	if _, err := m.Map("stack", base, (runs+2)*pageWords); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(base, 1); err != nil { // page 0 exists from here on
		t.Fatal(err)
	}
	page := int64(0)
	if n := testing.AllocsPerRun(runs, func() {
		page++
		if v, err := m.Load(base + page*pageWords + 3); err != nil || v != 0 {
			t.Fatalf("untouched Load = %d, %v", v, err)
		}
	}); n != 0 {
		t.Errorf("Load of an untouched word allocates %v times", n)
	}
	page = 0
	if n := testing.AllocsPerRun(runs, func() {
		page++
		if err := m.Store(base+page*pageWords, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Store(0) into an absent page allocates %v times", n)
	}
	if v, _ := m.Load(base); v != 1 {
		t.Errorf("Load(base) = %d, want 1", v)
	}
}
