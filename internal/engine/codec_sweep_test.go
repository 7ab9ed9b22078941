package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"recycle/internal/engine"
	"recycle/internal/planstore"
	"recycle/internal/replay"
	"recycle/internal/schedule"
	"recycle/internal/sim"
)

// sweepEngine builds the engine for one small shape, coupled or decoupled.
func sweepEngine(dp, pp, mb, unroll int, decoupled bool) *engine.Engine {
	tech := engine.AllTechniques
	tech.DecoupledBackProp = decoupled
	job, stats := engine.ShapeJob(dp, pp, mb)
	return engine.New(job, stats, engine.Options{UnrollIterations: unroll, Techniques: &tech})
}

// forSmallShapes calls fn for every shape up to DP3×PP3×MB3, coupled and
// decoupled, at one iteration and unrolled over two.
func forSmallShapes(fn func(label string, eng *engine.Engine)) {
	for dp := 1; dp <= 3; dp++ {
		for pp := 1; pp <= 3; pp++ {
			for mb := 1; mb <= 3; mb++ {
				for _, decoupled := range []bool{true, false} {
					for unroll := 1; unroll <= 2; unroll++ {
						label := fmt.Sprintf("dp%d pp%d mb%d decoupled=%v unroll=%d", dp, pp, mb, decoupled, unroll)
						fn(label, sweepEngine(dp, pp, mb, unroll, decoupled))
					}
				}
			}
		}
	}
}

// programRoundTrip requires the codec to be lossless on p and its bytes to
// be a fixed point, and returns the encoding.
func programRoundTrip(t *testing.T, label string, p *schedule.Program) []byte {
	t.Helper()
	data, err := engine.EncodeProgram(p)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	back, err := engine.DecodeProgram(data)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if back.Shape != p.Shape || back.Durations != p.Durations {
		t.Fatalf("%s: shape/durations changed across the codec", label)
	}
	if len(back.Failed) != len(p.Failed) || (len(p.Failed) > 0 && !reflect.DeepEqual(back.Failed, p.Failed)) {
		t.Fatalf("%s: failed set changed across the codec: %v vs %v", label, back.Failed, p.Failed)
	}
	// Slab for slab: a nil failed set decodes as an empty one, and decoding
	// memoized the plain timeline p's own first Plain walks.
	p.Plain()
	same := *back
	same.Failed = p.Failed
	if !reflect.DeepEqual(&same, p) {
		t.Fatalf("%s: the Program changed across the codec", label)
	}
	re, err := engine.EncodeProgram(back)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !bytes.Equal(data, re) {
		t.Fatalf("%s: encode(decode(data)) != data", label)
	}
	return data
}

// hostileSweep feeds decode every proper prefix of a valid encoding, which
// must all be rejected, and every single-byte corruption of it, which must
// be rejected or decode to an artifact that validates and re-encodes to a
// fixed point. Nothing may panic.
func hostileSweep(t *testing.T, label string, data []byte, decode func([]byte) error) {
	t.Helper()
	for n := 0; n < len(data); n++ {
		if decode(data[:n:n]) == nil {
			t.Fatalf("%s: the %d-byte prefix of a %d-byte encoding decoded", label, n, len(data))
		}
	}
	buf := make([]byte, len(data))
	for i := range data {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			copy(buf, data)
			buf[i] ^= mask
			if err := decode(buf); err != nil && err != errRejected {
				t.Fatalf("%s: byte %d ^ %#x: %v", label, i, mask, err)
			}
		}
	}
}

// errRejected is what the sweep's decode callbacks return for bytes the
// codec refused — the one acceptable failure.
var errRejected = errors.New("rejected")

func decodeProgramChecked(data []byte) error {
	p, err := engine.DecodeProgram(data)
	if err != nil {
		return errRejected
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("decoded an invalid program: %w", err)
	}
	re, err := engine.EncodeProgram(p)
	if err != nil {
		return fmt.Errorf("accepted program does not re-encode: %w", err)
	}
	back, err := engine.DecodeProgram(re)
	if err != nil {
		return fmt.Errorf("re-encoded program does not decode: %w", err)
	}
	if again, _ := engine.EncodeProgram(back); !bytes.Equal(re, again) {
		return fmt.Errorf("re-encoding is not a fixed point")
	}
	return nil
}

// TestProgramCodecOverSmallShapes runs the Program codec over everything
// the suite can produce at small scope: fault-free Programs and, from
// every admissible single kill, the spliced ones — which carry re-routed
// ops, frozen prefixes without edges and re-stamped durations the healthy
// ones do not. Each must round-trip field for field to a byte fixed point;
// one healthy and one spliced encoding per shape also go through the
// truncation and corruption sweeps.
func TestProgramCodecOverSmallShapes(t *testing.T) {
	programs := 0
	forSmallShapes(func(label string, eng *engine.Engine) {
		prog, err := eng.ProgramFor(nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		hostileSweep(t, label, programRoundTrip(t, label, prog), decodeProgramChecked)
		programs++
		if prog.Shape.Iter > 1 {
			return // the live splice runs on single-iteration Programs
		}
		full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		swept := false
		for _, victim := range prog.Workers() {
			for cut := int64(1); cut < full.Makespan; cut++ {
				lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
				if err != nil {
					continue // inadmissible kill
				}
				at := fmt.Sprintf("%s, %s killed at %d", label, victim, cut)
				data := programRoundTrip(t, at, lv.Program)
				programs++
				if !swept && cut > full.Makespan/2 {
					hostileSweep(t, at, data, decodeProgramChecked)
					swept = true
				}
			}
		}
	})
	t.Logf("round-tripped %d Programs", programs)
	if programs < 1000 {
		t.Fatalf("only %d Programs round-tripped: the sweep no longer reaches the spliced cases", programs)
	}
}

// TestProgramCodecCostTables is the sweep for Programs that carry a cost
// table: under each of CostModelEngines' models, the healthy Program, a
// degraded one and every admissible single-kill splice of the healthy one
// carry exactly the model's durations, round-trip field for field to a byte
// fixed point, and survive the truncation and corruption sweeps.
func TestProgramCodecCostTables(t *testing.T) {
	store := planstore.New(3)
	labels, engines := engine.CostModelEngines(t, store)
	for i, eng := range engines {
		label := labels[i]
		want := schedule.NewCostTable(eng.Shape(), eng.CostModel().Fn())
		check := func(at string, p *schedule.Program) []byte {
			t.Helper()
			if !slices.Equal(p.CostTable(), want) {
				t.Fatalf("%s: cost table %v, the model gives %v", at, p.CostTable(), want)
			}
			return programRoundTrip(t, at, p)
		}
		prog, err := eng.ProgramFor(nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		hostileSweep(t, label, check(label, prog), decodeProgramChecked)
		client := engine.NewClient(store, eng.Job(), eng.Stats(), engine.Options{UnrollIterations: 1, CostModel: eng.CostModel()})
		fetched, err := client.ProgramFor(nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+", fetched through a Client", fetched)
		degraded, err := eng.ProgramFor(map[schedule.Worker]bool{{Stage: 0, Pipeline: 0}: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		check(label+", W0_0 failed", degraded)
		full, err := sim.ExecuteProgram(prog, sim.ProgramOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		spliced := 0
		for _, victim := range prog.Workers() {
			for cut := int64(1); cut < full.Makespan; cut += max(full.Makespan/16, 1) {
				lv, err := replay.LiveSplice(replay.LiveEvent{Prog: prog, Cut: cut, Fail: []schedule.Worker{victim}})
				if err != nil {
					continue // inadmissible kill
				}
				at := fmt.Sprintf("%s, %s killed at %d", label, victim, cut)
				data := check(at, lv.Program)
				if spliced == 0 {
					hostileSweep(t, at, data, decodeProgramChecked)
				}
				spliced++
			}
		}
		if spliced == 0 {
			t.Fatalf("%s: no admissible kill: the sweep reaches no spliced Program", label)
		}
	}
}
