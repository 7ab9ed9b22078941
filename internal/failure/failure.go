package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Step is one point in an availability timeline: from At onward, Available
// workers are up. Failed and Rejoined carry the stable machine identities
// (flat indices in [0, Total)) that went down or came back at this
// instant; on the first step, Failed lists the machines already down when
// the timeline starts. Generators fill them; hand-built traces may leave
// every step unidentified, in which case Identify (or Windows, which calls
// it) derives canonical identities.
type Step struct {
	At        time.Duration
	Available int
	Failed    []int
	Rejoined  []int
}

// Trace is an availability timeline, sorted by time, starting at 0.
type Trace struct {
	Name  string
	Total int // fleet size the job was planned for
	Steps []Step
}

// Identified reports whether the trace carries explicit machine
// identities: every availability-changing step (and a first step that
// starts below the fleet total) names the machines involved. A flat trace
// with no membership events is trivially identified.
func (t Trace) Identified() bool {
	for i, s := range t.Steps {
		changed := false
		if i == 0 {
			changed = s.Available < t.Total
		} else {
			changed = s.Available != t.Steps[i-1].Available
		}
		if changed && len(s.Failed) == 0 && len(s.Rejoined) == 0 {
			return false
		}
	}
	return true
}

// Validate checks monotone timestamps and bounds; for identified traces it
// additionally checks identity consistency — IDs in [0, Total), no machine
// failing while down or re-joining while up, and each step's identity
// lists matching its availability change. Traces that identify only some
// of their membership events are rejected rather than silently
// re-identified.
func (t Trace) Validate() error {
	if len(t.Steps) == 0 || t.Steps[0].At != 0 {
		return fmt.Errorf("failure: trace must start at t=0")
	}
	prev := time.Duration(-1)
	for _, s := range t.Steps {
		if s.At <= prev {
			return fmt.Errorf("failure: non-increasing step at %v", s.At)
		}
		if s.Available < 0 || s.Available > t.Total {
			return fmt.Errorf("failure: availability %d outside [0,%d]", s.Available, t.Total)
		}
		prev = s.At
	}
	if !t.Identified() {
		// No identities anywhere is fine (Identify derives them); a partial
		// labeling would make the derived identities disagree with the
		// explicit ones.
		for _, s := range t.Steps {
			if len(s.Failed) > 0 || len(s.Rejoined) > 0 {
				return fmt.Errorf("failure: trace %q identifies only some membership events", t.Name)
			}
		}
		return nil
	}
	// Nothing is down before the timeline starts, so the first step can
	// only list initially-down machines — a t=0 re-join (or a same-step
	// fail-and-rejoin of one machine) would be dropped by Windows' first
	// window and leave the replayer's failure set out of sync.
	if len(t.Steps[0].Rejoined) > 0 {
		return fmt.Errorf("failure: first step re-joins machines %v before anything failed", t.Steps[0].Rejoined)
	}
	down := make(map[int]bool, t.Total)
	for _, s := range t.Steps {
		for _, id := range s.Failed {
			if id < 0 || id >= t.Total {
				return fmt.Errorf("failure: machine id %d outside [0,%d) at %v", id, t.Total, s.At)
			}
			if down[id] {
				return fmt.Errorf("failure: machine %d fails at %v while already down", id, s.At)
			}
			down[id] = true
		}
		for _, id := range s.Rejoined {
			if id < 0 || id >= t.Total {
				return fmt.Errorf("failure: machine id %d outside [0,%d) at %v", id, t.Total, s.At)
			}
			if !down[id] {
				return fmt.Errorf("failure: machine %d re-joins at %v while already up", id, s.At)
			}
			delete(down, id)
		}
		if got := t.Total - len(down); got != s.Available {
			return fmt.Errorf("failure: step at %v reports %d available but identities imply %d", s.At, s.Available, got)
		}
	}
	return nil
}

// Identify returns a copy of the trace with canonical machine identities
// on every step: the highest-numbered live machine fails first, and the
// most recently failed machine re-joins first. Any identities already
// present are replaced. Deterministic, so two derivations of the same
// trace agree event for event.
func (t Trace) Identify() (Trace, error) {
	bare := t
	bare.Steps = make([]Step, len(t.Steps))
	for i, s := range t.Steps {
		s.Failed, s.Rejoined = nil, nil
		bare.Steps[i] = s
	}
	if err := bare.Validate(); err != nil {
		return Trace{}, err
	}
	live := make([]bool, t.Total)
	for i := range live {
		live[i] = true
	}
	var stack []int // failed machines, most recent last
	fail := func(k int) []int {
		ids := make([]int, 0, k)
		for id := t.Total - 1; id >= 0 && len(ids) < k; id-- {
			if live[id] {
				live[id] = false
				stack = append(stack, id)
				ids = append(ids, id)
			}
		}
		return ids
	}
	rejoin := func(k int) []int {
		ids := make([]int, 0, k)
		for i := 0; i < k; i++ {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			live[id] = true
			ids = append(ids, id)
		}
		return ids
	}
	avail := t.Total
	for i := range bare.Steps {
		s := &bare.Steps[i]
		switch delta := s.Available - avail; {
		case delta < 0:
			s.Failed = fail(-delta)
		case delta > 0:
			s.Rejoined = rejoin(delta)
		}
		avail = s.Available
	}
	return bare, nil
}

// At returns the availability at time d. Steps are sorted by time
// (Validate enforces it), so the lookup binary-searches for the last step
// at or before d — simulators probe traces once per interval boundary and
// long Poisson traces made the former linear scan a measurable cost.
func (t Trace) At(d time.Duration) int {
	i := sort.Search(len(t.Steps), func(i int) bool { return t.Steps[i].At > d })
	if i == 0 {
		return t.Total
	}
	return t.Steps[i-1].Available
}

// Window is one membership interval of a trace: from Start (inclusive) to
// End (exclusive) the fleet holds Available workers, and Failed/Rejoined
// name the machines that changed at Start (on the first window, the
// machines down from the outset), so a replayer walking windows knows, at
// each boundary, exactly which workers it must splice out of or back into
// the in-flight iteration.
type Window struct {
	Start, End time.Duration
	Available  int
	Failed     []int
	Rejoined   []int
}

// Windows flattens the trace into membership windows over [0, horizon):
// the epoch boundaries a trace-driven replayer consumes. Consecutive steps
// with no membership events are merged, steps at or beyond the horizon are
// dropped, and the last window is clipped to end exactly at the horizon.
// The trace is validated first, so a re-join past the fleet total or a
// non-monotonic timeline is rejected rather than silently replayed;
// unidentified traces gain canonical identities via Identify, so every
// window names its machines.
func (t Trace) Windows(horizon time.Duration) ([]Window, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("failure: non-positive horizon %v", horizon)
	}
	if !t.Identified() {
		var err error
		if t, err = t.Identify(); err != nil {
			return nil, err
		}
	}
	var out []Window
	for _, s := range t.Steps {
		if s.At >= horizon {
			break
		}
		if n := len(out); n > 0 {
			if len(s.Failed) == 0 && len(s.Rejoined) == 0 {
				continue // not a membership event
			}
			out[n-1].End = s.At
			out = append(out, Window{Start: s.At, Available: s.Available, Failed: s.Failed, Rejoined: s.Rejoined})
			continue
		}
		out = append(out, Window{Start: s.At, Available: s.Available, Failed: s.Failed})
	}
	out[len(out)-1].End = horizon
	return out, nil
}

// MinAvailable returns the lowest availability in the trace.
func (t Trace) MinAvailable() int {
	min := t.Total
	for _, s := range t.Steps {
		if s.Available < min {
			min = s.Available
		}
	}
	return min
}

// Average returns the time-weighted mean availability over the horizon.
func (t Trace) Average(horizon time.Duration) float64 {
	var acc float64
	for i, s := range t.Steps {
		end := horizon
		if i+1 < len(t.Steps) && t.Steps[i+1].At < horizon {
			end = t.Steps[i+1].At
		}
		if end > s.At {
			acc += float64(s.Available) * (end - s.At).Seconds()
		}
	}
	return acc / horizon.Seconds()
}

// Monotonic builds the Table 1 failure workload: one worker lost every
// freq, never recovered, over the horizon. Victims carry canonical machine
// identities, highest ID first. With freq = 30m and a 6h run on 32 workers
// this ends at 20 available, matching §6.2.
func Monotonic(total int, freq, horizon time.Duration) Trace {
	t := Trace{Name: fmt.Sprintf("monotonic-%s", freq), Total: total, Steps: []Step{{At: 0, Available: total}}}
	n := total
	for at := freq; at <= horizon; at += freq {
		n--
		if n < 0 {
			break
		}
		t.Steps = append(t.Steps, Step{At: at, Available: n, Failed: []int{n}})
	}
	return t
}

// PoissonMachines builds a trace from per-machine Poisson processes:
// machine i alternates between up spells drawn from Exp(mtbf) and down
// spells drawn from Exp(mttr), each machine's process seeded independently
// from the trace seed, so the trace carries stable machine identities —
// the same machine fails and recovers across the timeline, the way spot
// reclamation notices name instances. mttr <= 0 makes every failure
// permanent. Deterministic for a given seed.
func PoissonMachines(total int, mtbf, mttr, horizon time.Duration, seed int64) Trace {
	type ev struct {
		at   time.Duration
		id   int
		down bool
	}
	var evs []ev
	for id := 0; id < total; id++ {
		rng := rand.New(rand.NewSource(seed ^ (int64(id)+1)*-0x61C8864680B583EB))
		at := time.Duration(0)
		up := true
		for {
			if up {
				at += time.Duration(rng.ExpFloat64() * float64(mtbf))
			} else {
				at += time.Duration(rng.ExpFloat64() * float64(mttr))
			}
			if at >= horizon {
				break
			}
			evs = append(evs, ev{at, id, up})
			if up && mttr <= 0 {
				break // permanent failure
			}
			up = !up
		}
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].id < evs[j].id
	})
	t := Trace{Name: fmt.Sprintf("poisson-machines-mtbf%s", mtbf), Total: total, Steps: []Step{{At: 0, Available: total}}}
	avail := total
	for _, e := range evs {
		if e.down {
			avail--
		} else {
			avail++
		}
		// Same-instant events (possible only through duration rounding)
		// merge into one step — including a failure at exactly t=0, which
		// lands on the first step as an initially-down machine; Validate
		// requires strictly increasing times.
		if last := &t.Steps[len(t.Steps)-1]; last.At == e.at {
			last.Available = avail
			if e.down {
				last.Failed = append(last.Failed, e.id)
			} else {
				last.Rejoined = append(last.Rejoined, e.id)
			}
			continue
		}
		s := Step{At: e.at, Available: avail}
		if e.down {
			s.Failed = []int{e.id}
		} else {
			s.Rejoined = []int{e.id}
		}
		t.Steps = append(t.Steps, s)
	}
	// A machine whose down spell rounded to zero fails and repairs at the
	// same merged instant; it never effectively left, so the pair cancels
	// (a splice cannot fail and re-join one worker in a single event).
	for i := range t.Steps {
		s := &t.Steps[i]
		if len(s.Failed) > 0 && len(s.Rejoined) > 0 {
			s.Failed, s.Rejoined = cancelPairs(s.Failed, s.Rejoined)
		}
	}
	return t
}

// cancelPairs removes machine IDs present in both lists, preserving order.
func cancelPairs(failed, rejoined []int) ([]int, []int) {
	inBoth := make(map[int]bool)
	for _, f := range failed {
		for _, r := range rejoined {
			if f == r {
				inBoth[f] = true
			}
		}
	}
	if len(inBoth) == 0 {
		return failed, rejoined
	}
	keep := func(ids []int) []int {
		out := ids[:0]
		for _, id := range ids {
			if !inBoth[id] {
				out = append(out, id)
			}
		}
		return out
	}
	return keep(failed), keep(rejoined)
}

// GCP reconstructs the availability envelope of the trace used in §6.2
// (Fig 9a) — derived from GCP spot instances by the Bamboo and Oobleck
// artifacts: 24 GPUs at the start, dipping to 15, with frequent removals
// and re-insertions over six hours. Machine identities are canonical
// (Identify): the envelope records counts, not instance names.
func GCP() Trace {
	mins := func(m int) time.Duration { return time.Duration(m) * time.Minute }
	t := Trace{
		Name:  "gcp-6h",
		Total: 24,
		Steps: []Step{
			{At: mins(0), Available: 24}, {At: mins(18), Available: 23}, {At: mins(31), Available: 22}, {At: mins(44), Available: 24},
			{At: mins(62), Available: 21}, {At: mins(74), Available: 19}, {At: mins(88), Available: 20}, {At: mins(103), Available: 24},
			{At: mins(126), Available: 22}, {At: mins(141), Available: 20}, {At: mins(158), Available: 18}, {At: mins(172), Available: 15},
			{At: mins(186), Available: 17}, {At: mins(201), Available: 20}, {At: mins(224), Available: 24}, {At: mins(247), Available: 22},
			{At: mins(262), Available: 19}, {At: mins(279), Available: 21}, {At: mins(301), Available: 23}, {At: mins(322), Available: 20},
			{At: mins(338), Available: 22}, {At: mins(352), Available: 22},
		},
	}
	id, err := t.Identify()
	if err != nil {
		panic(fmt.Sprintf("failure: GCP trace invalid: %v", err)) // fixed data; unreachable
	}
	return id
}

// FailureRate converts a percentage of a fleet into a worker count,
// rounding to nearest with a minimum of 1 for nonzero rates (Fig 10's 1%,
// 5%, 10% points).
func FailureRate(total int, pct float64) int {
	n := int(math.Round(float64(total) * pct / 100))
	if n == 0 && pct > 0 {
		n = 1
	}
	return n
}
