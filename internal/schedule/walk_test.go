package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomProgram compiles the fault-free 1F1B schedule of a random small
// shape, coupled or decoupled.
func randomProgram(t *testing.T, rng *rand.Rand) *Program {
	t.Helper()
	sh := Shape{DP: 1 + rng.Intn(3), PP: 1 + rng.Intn(4), MB: 1 + rng.Intn(6), Iter: 1 + rng.Intn(2)}
	sh.MB = max(sh.MB, sh.PP)
	ps := append([]Placement(nil), FaultFree1F1B(sh, UnitSlots).Placements...)
	if rng.Intn(2) == 0 {
		ps = decouple(ps)
	}
	p, err := Compile(New(sh, UnitSlots, nil, ps))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestWalkMatchesKahn is the oracle of the walk's deadlock verdict: on
// compiled Programs whose streams are reordered at random — most of them
// into a deadlock — the walk runs exactly the instructions Kahn's algorithm
// over edges, stream order and all-reduce edges orders, so both reject the
// same Programs with the same count.
func TestWalkMatchesKahn(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	deadlocked := 0
	for trial := 0; trial < 400; trial++ {
		p := randomProgram(t, rng)
		for swaps := rng.Intn(3); swaps > 0; swaps-- {
			w := rng.Intn(len(p.streamOff) - 1)
			s := p.streams[p.streamOff[w]:p.streamOff[w+1]]
			if len(s) < 2 {
				continue
			}
			i, j := rng.Intn(len(s)), rng.Intn(len(s))
			s[i], s[j] = s[j], s[i]
		}
		_, _, got := p.checkRuns(nil, nil)
		want := withBarrierEdges(p).checkAcyclicRef()
		sameError(t, fmt.Sprintf("trial %d shape %+v", trial, p.Shape), got, want)
		if got != nil {
			deadlocked++
		}
	}
	if deadlocked == 0 || deadlocked == 400 {
		t.Fatalf("%d of 400 reordered Programs deadlock: the generator misses a verdict", deadlocked)
	}
}

// TestValidateIgnoresDurations gives a Program durations off the wire could
// carry — negative, and large enough to overflow a sum: whether a Program
// runs to completion does not depend on its timing, so it still validates.
func TestValidateIgnoresDurations(t *testing.T) {
	p, err := Compile(FaultFree1F1B(Shape{DP: 2, PP: 3, MB: 4, Iter: 2}, UnitSlots))
	if err != nil {
		t.Fatal(err)
	}
	p.Durations = Durations{F: -3, BInput: -1, BWeight: -2, Opt: -4, Comm: math.MaxInt64}
	for i := range p.Instrs {
		p.Instrs[i].Dur = 0 // DurOf falls back to the negative Durations
		if i%2 == 0 {
			p.Instrs[i].Dur = math.MaxInt64 / 2
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWalkIsOrderFree pops the ready set in reverse: every instruction
// ends at the same instant and every worker meets the same fate, healthy,
// cut mid-iteration, or with a worker dying — the outcome is a function of
// the Program and its Timing alone.
func TestWalkIsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	walk := func(p *Program, tm Timing, reverse bool) ([]int64, []bool) {
		var w Walk
		end := make([]int64, len(p.Instrs))
		w.Reset(p, tm, nil, end)
		if reverse {
			slices.Reverse(w.ready)
		}
		w.Run()
		return end, slices.Clone(w.dead)
	}
	for trial := 0; trial < 100; trial++ {
		p := randomProgram(t, rng)
		full, _ := walk(p, Timing{Lat: Durations{Comm: 1}}, false)
		span := slices.Max(full)
		fail := make([]int64, len(p.streamOff)-1)
		for wi := range fail {
			fail[wi] = math.MaxInt64
		}
		fail[rng.Intn(len(fail))] = rng.Int63n(span + 1)
		for _, tm := range []Timing{
			{Lat: Durations{Comm: 1}},
			{Lat: Durations{Comm: 1}, Cut: 1 + rng.Int63n(span)},
			{Lat: Durations{Comm: 1}, FailAt: fail},
		} {
			end, dead := walk(p, tm, false)
			endR, deadR := walk(p, tm, true)
			if !slices.Equal(end, endR) || !slices.Equal(dead, deadR) {
				t.Fatalf("trial %d shape %+v cut %d: the pop order changed the outcome", trial, p.Shape, tm.Cut)
			}
		}
	}
}
