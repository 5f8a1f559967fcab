package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sys(t *testing.T, cores int) *System {
	t.Helper()
	s, err := NewSystem(cores, DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 12},
		{SizeBytes: -1, Ways: 2, BlockBytes: 64},
		{SizeBytes: 64, Ways: 2, BlockBytes: 64},         // zero sets
		{SizeBytes: 64 << 10, Ways: 2, BlockBytes: 48},   // block not a power of two
		{SizeBytes: 3 * 2 * 64, Ways: 2, BlockBytes: 64}, // 3 sets
	}
	for _, cfg := range bad {
		if _, err := NewSystem(2, cfg); err == nil {
			t.Errorf("NewSystem(%+v) accepted bad geometry", cfg)
		}
	}
	if _, err := NewSystem(0, DefaultConfig); err == nil {
		t.Error("zero cores accepted")
	}
	if DefaultConfig.sets() != 512 {
		t.Errorf("paper geometry should have 512 sets, got %d", DefaultConfig.sets())
	}
}

func TestColdLoadObservesInvalidThenExclusive(t *testing.T) {
	s := sys(t, 2)
	if st := s.Access(0, 100, Load); st != Invalid {
		t.Errorf("first load observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Exclusive {
		t.Errorf("after sole load state = %v, want E", st)
	}
	if st := s.Access(0, 100, Load); st != Exclusive {
		t.Errorf("re-load observed %v, want E", st)
	}
}

func TestSharedOnSecondReader(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)
	if st := s.Access(1, 100, Load); st != Invalid {
		t.Errorf("remote first load observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Shared {
		t.Errorf("first reader degraded to %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Shared {
		t.Errorf("second reader got %v, want S", st)
	}
}

func TestStoreInvalidatesRemote(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)  // core0: E
	s.Access(1, 100, Store) // core1 takes ownership
	if st := s.Peek(0, 100); st != Invalid {
		t.Errorf("remote write left core0 in %v, want I", st)
	}
	if st := s.Peek(1, 100); st != Modified {
		t.Errorf("writer in %v, want M", st)
	}
	// The WWR/RWR pattern of paper Table 3: the failure thread's next read
	// observes Invalid.
	if st := s.Access(0, 100, Load); st != Invalid {
		t.Errorf("victim read observed %v, want I (the failure-predicting event)", st)
	}
}

func TestStoreUpgradeFromShared(t *testing.T) {
	s := sys(t, 3)
	s.Access(0, 100, Load)
	s.Access(1, 100, Load)
	s.Access(2, 100, Load)
	if st := s.Access(1, 100, Store); st != Shared {
		t.Errorf("upgrade store observed %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Modified {
		t.Errorf("writer in %v, want M", st)
	}
	for _, core := range []int{0, 2} {
		if st := s.Peek(core, 100); st != Invalid {
			t.Errorf("core %d in %v after upgrade, want I", core, st)
		}
	}
}

func TestExclusiveToModifiedSilent(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)
	if st := s.Access(0, 100, Store); st != Exclusive {
		t.Errorf("store observed %v, want E", st)
	}
	if st := s.Peek(0, 100); st != Modified {
		t.Errorf("state %v, want M", st)
	}
}

func TestReadOfModifiedRemoteDowngrades(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Store) // core0: M
	if st := s.Access(1, 100, Load); st != Invalid {
		t.Errorf("reader observed %v, want I", st)
	}
	if st := s.Peek(0, 100); st != Shared {
		t.Errorf("former owner in %v, want S", st)
	}
	if st := s.Peek(1, 100); st != Shared {
		t.Errorf("reader in %v, want S", st)
	}
}

// TestReadTooEarlyExclusivePattern reproduces the FFT order-violation event
// of paper Figure 5: when the consumer reads a value its own thread wrote
// (uninitialized use), it observes E/M rather than the S it would observe
// after the producer wrote it.
func TestReadTooEarlyExclusivePattern(t *testing.T) {
	// Failure run: thread 1 (core 1) reads Gend before thread 2 (core 0)
	// initializes it. Because core 1 itself allocated/zeroed the block, it
	// observes a non-Shared state.
	s := sys(t, 2)
	s.Access(1, 200, Load) // B1 reads uninitialized: observes I, installs E
	if st := s.Access(1, 200, Load); st != Exclusive {
		t.Errorf("failure-run re-read observed %v, want E", st)
	}

	// Success run: producer stores first, consumer then reads and observes
	// I on first touch, then S — never E.
	s2 := sys(t, 2)
	s2.Access(0, 200, Store) // A: Gend=time()
	s2.Access(1, 200, Load)  // B1
	if st := s2.Access(1, 200, Load); st != Shared {
		t.Errorf("success-run re-read observed %v, want S", st)
	}
}

func TestEvictionLRU(t *testing.T) {
	cfg := Config{SizeBytes: 2 * 64, Ways: 2, BlockBytes: 64} // 1 set, 2 ways
	s, err := NewSystem(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(0, 0, Load)  // block 0
	s.Access(0, 8, Load)  // block 1
	s.Access(0, 0, Load)  // touch block 0 so block 1 is LRU
	s.Access(0, 16, Load) // block 2 evicts block 1
	if st := s.Peek(0, 8); st != Invalid {
		t.Errorf("LRU block still %v, want I (evicted)", st)
	}
	if st := s.Peek(0, 0); st != Exclusive {
		t.Errorf("MRU block got %v, want E", st)
	}
	if got := s.Stats(0).Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

func TestStatsObservedStates(t *testing.T) {
	s := sys(t, 2)
	s.Access(0, 100, Load)  // observes I
	s.Access(0, 100, Load)  // observes E
	s.Access(0, 100, Store) // observes E
	s.Access(0, 100, Store) // observes M
	st := s.Stats(0)
	if st.ObservedByState[Invalid] != 1 || st.ObservedByState[Exclusive] != 2 || st.ObservedByState[Modified] != 1 {
		t.Errorf("observed counts = %v", st.ObservedByState)
	}
	if st.Loads != 2 || st.Stores != 2 {
		t.Errorf("loads/stores = %d/%d", st.Loads, st.Stores)
	}
	if st.Hits != 3 || st.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
}

// Property: after any random access sequence the MESI single-writer
// invariant holds, and the observed state is always a valid MESI state.
func TestMESIInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Small cache to force evictions and conflicts.
		cfg := Config{SizeBytes: 4 * 64, Ways: 2, BlockBytes: 64}
		s, err := NewSystem(4, cfg)
		if err != nil {
			return false
		}
		for i := 0; i < 400; i++ {
			core := rng.Intn(4)
			addr := int64(rng.Intn(64)) * 4 // overlapping block set
			kind := Load
			if rng.Intn(2) == 1 {
				kind = Store
			}
			if st := s.Access(core, addr, kind); !st.Valid() {
				return false
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: single-core operation never produces Shared states (nothing to
// share with) and never invalidates.
func TestSingleCoreNeverShares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSystem(1, DefaultConfig)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			addr := int64(rng.Intn(1 << 12))
			kind := AccessKind(rng.Intn(2))
			if st := s.Access(0, addr, kind); st == Shared {
				return false
			}
		}
		return s.Stats(0).Invalidations == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), w)
		}
	}
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("AccessKind strings wrong")
	}
}

// refLine is one valid block in the reference model.
type refLine struct {
	state   State
	lastUse uint64
}

// refCache is a naive MESI model written independently of System: per core,
// a map from set to the valid blocks it holds (tag -> state and LRU tick).
// Invalid blocks are simply absent.
type refCache struct {
	cfg   Config
	sets  []map[int64]map[int64]*refLine
	stats []Stats
	tick  uint64
}

func newRefCache(ncores int, cfg Config) *refCache {
	r := &refCache{cfg: cfg, stats: make([]Stats, ncores)}
	for i := 0; i < ncores; i++ {
		r.sets = append(r.sets, map[int64]map[int64]*refLine{})
	}
	return r
}

func (r *refCache) ways(core int, set int64) map[int64]*refLine {
	w := r.sets[core][set]
	if w == nil {
		w = map[int64]*refLine{}
		r.sets[core][set] = w
	}
	return w
}

func (r *refCache) access(core int, addr int64, kind AccessKind) State {
	r.tick++
	block := addr / int64(r.cfg.BlockBytes/8)
	nsets := int64(r.cfg.sets())
	set, tag := block%nsets, block/nsets
	st := &r.stats[core]
	if kind == Load {
		st.Loads++
	} else {
		st.Stores++
	}
	own := r.ways(core, set)
	ln := own[tag]
	observed := Invalid
	if ln != nil {
		observed = ln.state
	}
	st.ObservedByState[observed]++
	if ln != nil {
		st.Hits++
		ln.lastUse = r.tick
		if kind == Store {
			if ln.state == Shared {
				r.invalidateOthers(core, set, tag)
			}
			ln.state = Modified
		}
		return observed
	}
	st.Misses++
	remote := false
	for other := range r.sets {
		if other == core {
			continue
		}
		rl := r.ways(other, set)[tag]
		if rl == nil {
			continue
		}
		remote = true
		if kind == Store {
			delete(r.sets[other][set], tag)
			r.stats[other].Invalidations++
		} else {
			rl.state = Shared
		}
	}
	if len(own) == r.cfg.Ways { // full: evict the least recently used
		var lru int64
		var oldest *refLine
		for t, l := range own {
			if oldest == nil || l.lastUse < oldest.lastUse {
				lru, oldest = t, l
			}
		}
		delete(own, lru)
		st.Evictions++
	}
	state := Exclusive
	if kind == Store {
		state = Modified
	} else if remote {
		state = Shared
	}
	own[tag] = &refLine{state: state, lastUse: r.tick}
	return observed
}

func (r *refCache) invalidateOthers(core int, set, tag int64) {
	for other := range r.sets {
		if other == core {
			continue
		}
		if r.ways(other, set)[tag] != nil {
			delete(r.sets[other][set], tag)
			r.stats[other].Invalidations++
		}
	}
}

// TestReferenceOracle runs random multi-core access streams through System
// and through the reference model. The observed pre-access state and every
// core's Stats must agree after each access, Peek must agree with the
// model's contents, and the MESI invariants must hold throughout.
func TestReferenceOracle(t *testing.T) {
	cfgs := []Config{
		{SizeBytes: 4 * 64, Ways: 2, BlockBytes: 64}, // 2 sets: heavy conflict
		{SizeBytes: 8 * 32, Ways: 4, BlockBytes: 32}, // 2 sets, 4 ways
		{SizeBytes: 1 * 64, Ways: 1, BlockBytes: 64}, // one direct-mapped line
		DefaultConfig,
	}
	for ci, cfg := range cfgs {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ncores := 1 + rng.Intn(4)
			s, err := NewSystem(ncores, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefCache(ncores, cfg)
			// Blocks from three sets, Ways+2 tags each: enough to mix hits,
			// sharing, conflicts and LRU evictions in a short stream.
			nsets, wpb := cfg.sets(), cfg.BlockBytes/8
			sets := []int{0, nsets / 2, nsets - 1}
			pick := func() int64 {
				tag := rng.Intn(cfg.Ways + 2)
				set := sets[rng.Intn(len(sets))]
				return int64((tag*nsets+set)*wpb + rng.Intn(wpb))
			}
			for i := 0; i < 600; i++ {
				core := rng.Intn(ncores)
				addr := pick()
				kind := AccessKind(rng.Intn(2))
				got, want := s.Access(core, addr, kind), ref.access(core, addr, kind)
				if got != want {
					t.Fatalf("cfg %d seed %d step %d: core %d %v %d observed %v, model %v",
						ci, seed, i, core, kind, addr, got, want)
				}
				for c := 0; c < ncores; c++ {
					if s.Stats(c) != ref.stats[c] {
						t.Fatalf("cfg %d seed %d step %d: core %d stats %+v, model %+v",
							ci, seed, i, c, s.Stats(c), ref.stats[c])
					}
					probe := pick()
					block := probe / int64(wpb)
					want := Invalid
					if l := ref.ways(c, block%int64(nsets))[block/int64(nsets)]; l != nil {
						want = l.state
					}
					if got := s.Peek(c, probe); got != want {
						t.Fatalf("cfg %d seed %d step %d: Peek(%d, %d) = %v, model %v",
							ci, seed, i, c, probe, got, want)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("cfg %d seed %d step %d: %v", ci, seed, i, err)
				}
			}
		}
	}
}

// A domain allocates a core's lines on that core's first Access: cores
// that are never touched hold no lines, read as Invalid, pass the
// invariant check and cost nothing to query.
func TestIdleCoresAllocateNothing(t *testing.T) {
	s := sys(t, 4)
	for core, c := range s.caches {
		if c.lines != nil {
			t.Errorf("core %d allocated %d lines before any access", core, len(c.lines))
		}
		if st := s.Peek(core, 100); st != Invalid {
			t.Errorf("idle core %d Peek = %v, want I", core, st)
		}
		if st := s.Stats(core); st != (Stats{}) {
			t.Errorf("idle core %d stats = %+v", core, st)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { s.Peek(2, 100) }); n != 0 {
		t.Errorf("Peek on an idle core allocates %v times", n)
	}
	s.Access(1, 100, Store) // misses: snoops the idle cores
	s.Access(0, 100, Load)
	s.Access(1, 100, Store) // upgrades from S: invalidates the others
	for core, c := range s.caches {
		if allocated := c.lines != nil; allocated != (core <= 1) {
			t.Errorf("after accesses by cores 0 and 1, core %d allocated = %v", core, allocated)
		}
	}
	if st := s.Peek(1, 100); st != Modified {
		t.Errorf("writer in %v, want M", st)
	}
}
