package engine

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"recycle/internal/config"
	"recycle/internal/profile"
	"recycle/internal/schedule"
)

// v1Program is the v1 (JSON) encoding of the DP1×PP1×MB1 Program, as the
// retired JSON codec wrote it: stores may still hold such bytes.
const v1Program = `{"Version":1,"Shape":{"DP":1,"PP":1,"MB":1,"Iter":1},"Durations":{"F":1,"BInput":1,"BWeight":1,"Opt":1,"Comm":0},"Instrs":[{"Op":{"Stage":0,"MB":0,"Home":0,"Type":0,"Exec":0,"Iter":0},"Dur":1},{"Op":{"Stage":0,"MB":0,"Home":0,"Type":1,"Exec":0,"Iter":0},"Deps":[{"From":0,"Kind":2}],"Dur":2},{"Op":{"Stage":0,"MB":-1,"Home":0,"Type":4,"Exec":0,"Iter":0},"Deps":[{"From":1,"Kind":3}],"Dur":1}],"Streams":[{"Worker":{"Stage":0,"Pipeline":0},"IDs":[0,1,2]}]}`

// addHostileSeeds seeds the decode fuzzer with what a replicated store can
// hand an executor besides a good artifact: a valid encoding cut at each
// section boundary (sections lists where they end) and just short of its
// end, the header followed by a count the bytes cannot back and by a count
// of 2³¹, v1 bytes, the encoding framed as another kind, and nothing.
func addHostileSeeds(f *testing.F, data []byte, sections []int, header []byte) {
	f.Add(data)
	for _, end := range append(sections, len(wireMagic)+2, len(header), len(data)-1) {
		f.Add(data[:end:end])
	}
	tooMany := writer{b: bytes.Clone(header)}
	tooMany.int(len(data))
	tooMany.int(0)
	f.Add(tooMany.b)
	f.Add(binary.AppendUvarint(append(bytes.Clone(header), 1), 1<<31))
	f.Add([]byte(v1Program))
	f.Add(otherKind(data))
	f.Add([]byte(nil))
}

// addBarrierSeeds seeds the Program decoder with what the barrier adds to
// the hostile inputs: p's encoding stamped v2, a gate bit on a forward
// (instruction 0), and p without a weight gradient no edge consumes, which
// leaves its stage's optimizers gated on one fewer than DP·MB.
func addBarrierSeeds(f *testing.F, p *schedule.Program, data []byte) {
	v2 := bytes.Clone(data)
	v2[len(wireMagic)+1] = 2
	f.Add(v2)
	gate := wireOf(p)
	gate.instrs[0].gated = true
	f.Add(gate.encode())
	f.Add(wireOf(p).without(leafGradient(p)).encode())
}

// CostModelEngines builds one small single-iteration engine per kind of cost
// model a Program's cost table carries, labelled: a 2× straggler on unit
// slots, and the calibrated model the replay experiments build
// (experiments.ReplayEngine: analytic stats plus the stage scales of the
// real layer split). The Fig 9 jobs split evenly, so their calibrated model
// is nil; this one is GPT-3 3.35B at PP4, 8/8/7/7 layers. The external
// codec sweeps use it too.
func CostModelEngines(tb testing.TB) (labels []string, engines []*Engine) {
	job, stats := ShapeJob(2, 2, 3)
	straggler := profile.UniformCost(stats).WithWorkerScale(schedule.Worker{Stage: 0, Pipeline: 1}, 2)
	labels = append(labels, "2x straggler")
	engines = append(engines, New(job, stats, Options{UnrollIterations: 1, CostModel: straggler}))

	job = config.Job{Model: config.GPT3_3_35B, Parallel: config.Parallelism{DP: 2, PP: 4, TP: 1},
		Batch: config.Batch{GlobalBatch: 4, MicroBatch: 1}, Hardware: config.A100x1}
	stats, err := profile.Analytic(job)
	if err != nil {
		tb.Fatal(err)
	}
	calibrated, err := profile.CalibratedCost(job, stats)
	if err != nil || calibrated == nil {
		tb.Fatalf("calibrated cost model %v: %v", calibrated, err)
	}
	labels = append(labels, "calibrated 3.35B")
	engines = append(engines, New(job, stats, Options{UnrollIterations: 1, CostModel: calibrated}))
	return labels, engines
}

// otherKind frames a Program's encoding as the retired plan codec framed
// its artifacts: "RCW", then kind 'P' where a Program has 'G'.
func otherKind(data []byte) []byte {
	other := bytes.Clone(data)
	other[len(wireMagic)] = 'P'
	return other
}

// FuzzDecodeProgram hardens the Program codec against the replicated
// store's failure modes: torn writes, stale versions, hand-edited values.
// Remote executors decode these artifacts straight out of the store, so
// arbitrary bytes must either be rejected or produce a fully validated,
// re-encodable Program — never a panic, never a half-built artifact that
// executes.
func FuzzDecodeProgram(f *testing.F) {
	job, stats := ShapeJob(2, 2, 4)
	eng := New(job, stats, Options{UnrollIterations: 1})
	for n := 0; n <= 1; n++ {
		p, err := eng.Program(n)
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		var header writer
		header.header(p.Shape, p.Durations, p.Failed)
		// The stream section is the tail; the instructions end where it begins.
		var streams writer
		streams.int(len(p.Workers()))
		for _, wk := range p.Workers() {
			streams.worker(wk)
			streams.int(len(p.Stream(wk)))
			prev := int32(0)
			for _, id := range p.Stream(wk) {
				streams.varint(int64(id - prev))
				prev = id
			}
		}
		if !bytes.HasSuffix(data, streams.b) {
			f.Fatal("the seed builder no longer mirrors EncodeProgram")
		}
		addHostileSeeds(f, data, []int{len(data) - len(streams.b)}, header.b)
		addBarrierSeeds(f, p, data)
	}
	// Programs that carry a cost table, cut where the table ends, and with a
	// duration the decoder must refuse.
	_, engines := CostModelEngines(f)
	for _, eng := range engines {
		p, err := eng.Program(0)
		if err != nil {
			f.Fatal(err)
		}
		data, err := EncodeProgram(p)
		if err != nil {
			f.Fatal(err)
		}
		var header writer
		header.header(p.Shape, p.Durations, p.Failed)
		costs := writer{b: bytes.Clone(header.b)}
		costs.int(len(p.CostTable()))
		for _, d := range p.CostTable() {
			costs.varint(d)
		}
		if len(p.CostTable()) == 0 || !bytes.HasPrefix(data, costs.b) {
			f.Fatal("the seed builder no longer mirrors EncodeProgram's cost table")
		}
		addHostileSeeds(f, data, []int{len(costs.b)}, header.b)
		zero := wireOf(p)
		zero.costs = slices.Clone(zero.costs)
		zero.costs[len(zero.costs)-1] = 0
		f.Add(zero.encode())
	}

	f.Add(cyclicEncoding(f)) // sound structure, but it deadlocks

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeProgram(data)
		if err != nil {
			return // rejected, fine
		}
		if p == nil || len(p.Instrs) == 0 || len(p.Workers()) == 0 {
			t.Fatalf("DecodeProgram accepted bytes but produced a hollow program: %+v", p)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("DecodeProgram returned an invalid program: %v", err)
		}
		re, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("accepted program does not re-encode: %v", err)
		}
		back, err := DecodeProgram(re)
		if err != nil {
			t.Fatalf("re-encoded program does not decode: %v", err)
		}
		a, err := EncodeProgram(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, a) {
			t.Fatal("encode(decode(encode(p))) is not a fixed point")
		}
	})
}
