package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"recycle/internal/schedule"
)

// The Program codec's framing: wireMagic, a kind byte and the version
// byte, then the artifact's Shape, Durations and failed-worker set, then
// length-prefixed arrays. Fields typed int travel as uvarints and must fit
// an int32; int64 fields and deltas travel as zigzag varints. The kind byte
// is 'G'; any other kind (the retired plan codec wrote 'P') is rejected.
const (
	wireMagic   = "RCW"
	kindProgram = 'G'
)

// writer appends fields to one buffer. An int no reader would accept
// latches err, so an artifact that encodes is one that decodes.
type writer struct {
	b   []byte
	err error
}

// int keeps the one-byte case, most of every artifact, inlinable.
func (w *writer) int(v int) {
	if uint(v) < 0x80 {
		w.b = append(w.b, byte(v))
		return
	}
	w.intLong(v)
}

func (w *writer) intLong(v int) {
	if uint64(v) > math.MaxInt32 && w.err == nil {
		w.err = fmt.Errorf("engine: cannot encode %d as a non-negative int32", v)
	}
	w.b = binary.AppendUvarint(w.b, uint64(v))
}

func (w *writer) varint(v int64) { w.b = binary.AppendVarint(w.b, v) }

func (w *writer) worker(k schedule.Worker) { w.int(k.Stage); w.int(k.Pipeline) }

// op writes the six op fields; MB travels as MB+1 because an optimizer
// carries MB = -1.
func (w *writer) op(o schedule.Op) {
	for _, v := range [...]int{o.Stage, o.MB + 1, o.Home, int(o.Type), o.Exec, o.Iter} {
		w.int(v)
	}
}

// header writes what every artifact starts with. The failed set is written
// in SortWorkers order, so equal sets yield equal bytes.
func (w *writer) header(sh schedule.Shape, d schedule.Durations, failed map[schedule.Worker]bool) {
	w.b = append(append(w.b, wireMagic...), kindProgram, ProgramCodecVersion)
	for _, v := range [...]int{sh.DP, sh.PP, sh.MB, sh.Iter} {
		w.int(v)
	}
	for _, v := range [...]int64{d.F, d.BInput, d.BWeight, d.Opt, d.Comm} {
		w.varint(v)
	}
	ws := workerList(failed)
	w.int(len(ws))
	for _, k := range ws {
		w.worker(k)
	}
}

// reader is the cursor the decoder reads through. Artifacts are decoded
// straight out of the replicated store, so it trusts nothing: the first
// malformed field latches err and every later read returns zero, which
// lets the decoder read field by field and test err once per element.
type reader struct {
	b   []byte
	off int
	sh  schedule.Shape
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a field typed int, one byte in most of every artifact: anything
// beyond an int32 is rejected, so no index arithmetic downstream overflows.
func (r *reader) int() int {
	if r.off < len(r.b) && r.b[r.off] < 0x80 {
		r.off++
		return int(r.b[r.off-1])
	}
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("integer %d overflows int32", v)
		return 0
	}
	return int(v)
}

// count reads the length of an array whose elements each cost at least
// elem bytes and checks it against the bytes remaining, before anything is
// allocated from it.
func (r *reader) count(elem int) int {
	n := r.int()
	if left := len(r.b) - r.off; n > left/elem {
		r.fail("count %d exceeds the %d bytes remaining", n, left)
		return 0
	}
	return n
}

// worker reads a worker and checks it against the header's shape.
func (r *reader) worker() schedule.Worker {
	k := schedule.Worker{Stage: r.int(), Pipeline: r.int()}
	if r.err == nil && r.sh.WorkerIndex(k) < 0 {
		r.fail("worker %s lies outside shape %+v", k, r.sh)
	}
	return k
}

// opFields reads an op and checks its type. The decoder leaves the op's
// position to schedule.ProgramBuilder, which checks it as it indexes the op.
func (r *reader) opFields() schedule.Op {
	stage, mb, home, t := r.int(), r.int()-1, r.int(), r.int()
	o := schedule.Op{Stage: stage, MB: mb, Home: home, Type: schedule.OpType(t), Exec: r.int(), Iter: r.int()}
	if r.err == nil && t > int(schedule.Optimizer) {
		r.fail("op %s has unknown type %d", o, t)
	}
	return o
}

// header checks the framing — v1 JSON, another version and another kind
// all fail here — and reads Shape, Durations and the failed set, which must
// arrive strictly increasing in SortWorkers order.
func (r *reader) header() (d schedule.Durations, failed map[schedule.Worker]bool) {
	if n := len(wireMagic); len(r.b) < n+2 || string(r.b[:n]) != wireMagic || r.b[n] != kindProgram || r.b[n+1] != ProgramCodecVersion {
		r.fail("codec version: %d bytes not headed %q, kind %q, version %d", len(r.b), wireMagic, kindProgram, ProgramCodecVersion)
		return
	}
	r.off = len(wireMagic) + 2
	r.sh = schedule.Shape{DP: r.int(), PP: r.int(), MB: r.int(), Iter: r.int()}
	d = schedule.Durations{F: r.varint(), BInput: r.varint(), BWeight: r.varint(), Opt: r.varint(), Comm: r.varint()}
	if r.err == nil && r.sh.Triples() < 0 {
		r.fail("invalid shape %+v", r.sh)
	}
	n := r.count(2)
	failed = make(map[schedule.Worker]bool, n)
	for i, prev := 0, -1; i < n && r.err == nil; i++ {
		k := r.worker()
		if at := k.Stage*r.sh.DP + k.Pipeline; at <= prev {
			r.fail("failed worker %s is repeated or out of order", k)
		} else {
			failed[k], prev = true, at
		}
	}
	return d, failed
}

// end reports the first error, trailing bytes included.
func (r *reader) end(what string) error {
	if r.err == nil && r.off < len(r.b) {
		r.fail("%d trailing bytes", len(r.b)-r.off)
	}
	if r.err != nil {
		return fmt.Errorf("engine: undecodable %s: %w", what, r.err)
	}
	return nil
}
