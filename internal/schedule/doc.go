// Package schedule defines ReCycle's two intermediate representations and
// the lowering between them.
//
// The schedule IR is the 5-tuple operation set of the paper's MILP
// formulation (§4.2.2) — (stage, micro-batch, home pipeline, phase,
// executing pipeline) plus an iteration index — placed into fully timed
// per-worker timetables. Validate checks a timed schedule against the
// MILP's constraint set (cross-stage dependencies, same-stage
// dependencies, no-overlap, memory caps), optionally under a
// heterogeneous per-(worker, op) cost function (CostFunc).
//
// The Program IR is the executable form: Compile lowers a timed schedule
// into per-worker instruction streams with explicit dependency edges —
// cross-stage activation/gradient sends and same-worker data dependencies
// — plus one all-reduce Barrier per (iteration, stage) group, and stamps
// each instruction with the modeled duration the solver optimized against
// (Instr.Dur, read through Program.DurOf). The barrier holds each group's
// weight-gradient contributions once, in CSR form, and a gate bit in each
// optimizer it gates (all but a frozen prefix's), so a Program carries
// O(instructions) links where DP·MB edges into every optimizer took
// DP²·MB·PP; executors keep one pending count and one running latest end
// per group, and Producers spells a gated optimizer's group out as
// DepAllReduce edges for recorders. Both executors consume this one
// artifact: the live runtime (internal/dtrain) interprets it with real
// tensors and goroutines, the discrete-event simulator (internal/sim)
// executes it in virtual time. Op ordering and op durations are decided
// here, once, and nowhere else, which is what makes the two executions
// agree by construction. When an instruction may run is decided once too:
// a Walk holds a stream cursor and a clock per worker, a pending count per
// barrier group and the ready set of workers whose head may run, and runs
// each admitted instruction for its stamped duration, charging edges,
// cuts and deaths by its Timing. A Program is proven to run by the walk
// that times it: Compile checks it edge-consistent and its barrier
// complete, then Prove walks its plain timeline — under its own
// Durations — into the one slab every later Plain shares, and every
// instruction must run, so the artifact is deadlock-free. ProgramBuilder
// checks structure only and leaves that proof to its caller's walk;
// Program.Validate, the full audit, walks on every call, and the
// simulator times Programs on the same walk. WithCosts re-times a
// Program under another cost table: a view with its instructions
// re-stamped, sharing everything else.
//
// The failure path runs on one dense op index. Every op of a schedule lies
// in the rectangle its Shape bounds, so Shape derives TripleIndex =
// ((iter·PP + stage)·DP + home)·MB + mb for a micro-batch triple,
// StageIndex = iter·PP + stage for an all-reduce group and WorkerIndex =
// pipeline·PP + stage for a worker, and Compile, Validate, the walk and
// replay.Splice key their bookkeeping by them, with CSR adjacency built
// count -> prefix sum -> fill. One op-slot layout files every op: triple k
// owns slots 3k (F), 3k+1 (BInput, or a coupled B) and 3k+2 (BWeight, or
// a coupled B), then one slot per (stage group, exec) optimizer (Slot).
// One dependency rule says what an op waits on: Shape.AppendInputs, the
// MILP's Eq. 2–4 as at most two producer slots with their DepKind.
// Compile's edges, Validate's timing checks, replay.Splice's edges and
// FaultFree1F1B's closed form all loop over those inputs through one table
// indexed by op slot (-1 for absent); re-routing a micro-batch
// changes which worker runs it, never what it waits on. The tables are
// pooled scratch, never cached on a Schedule or Program; the plain
// timeline is the one thing a Program memoizes.
// Indexing is bounds-checked: an op outside its Shape, or a Shape claiming
// far more triples than it has placements (Shape.Indexable), is rejected,
// never indexed.
//
// A Program holds its ops by the same index, in pointer-free slabs: a
// 24-byte Instr (the op's TripleIndex or an optimizer's StageIndex, its
// executing pipeline, its type, its stamped duration, its gate bit and the
// offset of its edges), one edge slab of 8-byte Deps, and one int32 slab
// for the streams — CSR over WorkerIndex — and the barrier's lists. Its
// accessors (Op, Type, OpIndex, Deps, Gated, Stream) decode on read; At
// reads an instruction's (type, dense index, executor) undecoded.
// Compile and ProgramBuilder, the constructor replay.Splice, decoders and
// hand-assembled Programs go through, are the only ways to build one;
// ProgramBuilder.InstrAt takes an instruction by its dense index, and
// Instr by its op, through the same checks.
//
// The package also provides the closed-form fault-free 1F1B schedule
// (FaultFree1F1B), the canonical 1F1B instruction order, and an ASCII
// Gantt renderer.
package schedule
