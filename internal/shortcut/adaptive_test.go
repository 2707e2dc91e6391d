package shortcut

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sweepcache"
	"repro/internal/topology"
)

// freshMemo gives the test an empty selection memo, restoring the shared
// one when it ends.
func freshMemo(t *testing.T) {
	prev := selectionMemo
	selectionMemo = sweepcache.New(1024)
	t.Cleanup(func() { selectionMemo = prev })
}

// memoFixture is a 6x8 mesh with every other router RF-enabled and a
// deterministic, uneven frequency matrix.
func memoFixture() (*topology.Mesh, []int, [][]int64) {
	m := topology.New(6, 8)
	var rf []int
	for id := 0; id < m.N(); id += 2 {
		rf = append(rf, id)
	}
	freq := make([][]int64, m.N())
	for x := range freq {
		freq[x] = make([]int64, m.N())
		for y := range freq[x] {
			freq[x][y] = int64((x*7 + y*13) % 5)
		}
	}
	return m, rf, freq
}

func TestAdaptiveMemoHitEqualsDirect(t *testing.T) {
	freshMemo(t)
	m, rf, freq := memoFixture()
	rfSet := map[int]bool{}
	for _, id := range rf {
		rfSet[id] = true
	}
	want := cheaperSet(m.Graph(), Params{
		Budget:   6,
		Eligible: func(id int) bool { return rfSet[id] && m.ShortcutEligible(id) },
		Freq:     freq,
		MeshW:    m.W,
		MeshH:    m.H,
	})
	if len(want) == 0 {
		t.Fatal("fixture selects no shortcuts")
	}
	miss := Adaptive(m, rf, freq, 6)
	hit := Adaptive(m, rf, freq, 6)
	if !reflect.DeepEqual(miss, want) || !reflect.DeepEqual(hit, want) {
		t.Errorf("Adaptive = %v then %v, want the direct selection %v", miss, hit, want)
	}
	if s := selectionMemo.Stats(); s.Misses != 1 || s.Hits != 1 {
		t.Errorf("memo stats %+v, want 1 miss then 1 hit", s)
	}
}

func TestAdaptiveReturnsFreshSlice(t *testing.T) {
	freshMemo(t)
	m, rf, freq := memoFixture()
	first := Adaptive(m, rf, freq, 6)
	want := append([]Edge(nil), first...)
	for i := range first {
		first[i] = Edge{From: -1, To: -1}
	}
	if got := Adaptive(m, rf, freq, 6); !reflect.DeepEqual(got, want) {
		t.Errorf("after mutating a returned slice, Adaptive = %v, want %v", got, want)
	}
}

func TestAdaptiveMemoSingleFlight(t *testing.T) {
	freshMemo(t)
	m, rf, freq := memoFixture()
	const callers = 8
	got := make([][]Edge, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = Adaptive(m, rf, freq, 6)
		}(i)
	}
	close(start)
	wg.Wait()
	if s := selectionMemo.Stats(); s.Misses != 1 || s.Hits+s.Joins != callers-1 {
		t.Errorf("memo stats %+v, want 1 miss and %d hits or joins", s, callers-1)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Errorf("caller %d got %v, caller 0 got %v", i, got[i], got[0])
		}
	}
}

func TestAdaptiveMemoKeyCoversInputs(t *testing.T) {
	freshMemo(t)
	m, rf, freq := memoFixture()
	Adaptive(m, rf, freq, 6)

	oneEntry := make([][]int64, len(freq))
	nilRow := make([][]int64, len(freq))
	zeroRow := make([][]int64, len(freq))
	for x := range freq {
		oneEntry[x] = append([]int64(nil), freq[x]...)
		nilRow[x], zeroRow[x] = freq[x], freq[x]
	}
	oneEntry[9][20]++
	nilRow[9] = nil
	zeroRow[9] = make([]int64, len(freq))

	for _, c := range []struct {
		name string
		call func()
	}{
		{"mesh shape", func() { Adaptive(topology.New(8, 6), rf, freq, 6) }},
		{"eligible set", func() { Adaptive(m, rf[2:], freq, 6) }},
		{"budget", func() { Adaptive(m, rf, freq, 5) }},
		{"one freq entry", func() { Adaptive(m, rf, oneEntry, 6) }},
		{"nil freq row", func() { Adaptive(m, rf, nilRow, 6) }},
		{"zero freq row", func() { Adaptive(m, rf, zeroRow, 6) }},
		{"nil freq", func() { Adaptive(m, rf, nil, 6) }},
	} {
		before := selectionMemo.Stats().Misses
		c.call()
		if after := selectionMemo.Stats().Misses; after != before+1 {
			t.Errorf("changing the %s: %d misses, want %d", c.name, after, before+1)
		}
	}
}

func TestStaticMemoEqualsDirect(t *testing.T) {
	freshMemo(t)
	for _, wh := range [][2]int{{6, 6}, {8, 8}, {10, 10}, {12, 12}, {6, 12}, {12, 6}} {
		m := topology.New(wh[0], wh[1])
		for budget := 0; budget <= 16; budget++ {
			want := SelectMaxCost(m.Graph(), Params{Budget: budget, Eligible: m.ShortcutEligible})
			miss, hit := Static(m, budget), Static(m, budget)
			if !reflect.DeepEqual(miss, want) || !reflect.DeepEqual(hit, want) {
				t.Errorf("%dx%d budget %d: Static = %v then %v, want %v", m.W, m.H, budget, miss, hit, want)
			}
		}
	}
	if s := selectionMemo.Stats(); s.Misses != 6*17 || s.Hits != 6*17 {
		t.Errorf("memo stats %+v, want %d misses and as many hits", s, 6*17)
	}
}

func TestStaticMemoReturnsFreshSlice(t *testing.T) {
	freshMemo(t)
	m := topology.New10x10()
	first := Static(m, 16)
	want := append([]Edge(nil), first...)
	for i := range first {
		first[i] = Edge{From: -1, To: -1}
	}
	if got := Static(m, 16); !reflect.DeepEqual(got, want) {
		t.Errorf("after mutating a returned slice, Static = %v, want %v", got, want)
	}
}

// TestStaticAndAdaptiveMemoSeparate: an adaptive selection over every
// eligible router with no profile reads the same inputs as the static
// set, but runs another selector, so it must not share its entry.
func TestStaticAndAdaptiveMemoSeparate(t *testing.T) {
	freshMemo(t)
	m := topology.New10x10()
	all := make([]int, m.N())
	for id := range all {
		all[id] = id
	}
	static := Static(m, 16)
	adaptive := Adaptive(m, all, nil, 16)
	if s := selectionMemo.Stats(); s.Misses != 2 || s.Entries != 2 {
		t.Errorf("memo stats %+v, want 2 misses and 2 entries", s)
	}
	if got := Static(m, 16); !reflect.DeepEqual(got, static) {
		t.Errorf("Static after Adaptive = %v, want %v", got, static)
	}
	if got := Adaptive(m, all, nil, 16); !reflect.DeepEqual(got, adaptive) {
		t.Errorf("Adaptive after Static = %v, want %v", got, adaptive)
	}
	if s := selectionMemo.Stats(); s.Misses != 2 || s.Hits != 2 {
		t.Errorf("memo stats %+v, want 2 misses then 2 hits", s)
	}
}
