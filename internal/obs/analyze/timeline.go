package analyze

import (
	"cmp"
	"slices"

	"repro/internal/obs"
)

// timeline is the one placement of a journal's events on the run's time
// axis. The report, the citroen_phase_seconds series and the Chrome trace
// all feed events through a timeline, so they cannot disagree about where
// an event sat or which phase a stretch of the run belongs to.
//
// Placement: recorder clock restarts (a resumed job re-creates its
// recorder, TimeNS starts again near 0) are spliced onto the end of the
// previous epoch; a timed event's operation ends at opEnd and began wall_ns
// before, clamped at the journal's first event.
//
// Booking: elapsed time is booked on one monotone cursor, in journal order.
// Everything before the cursor is booked or left to "other".
//   - A run of compile events with no other timed event between them is one
//     fan-out, booked as the union of its intervals.
//   - measure and gp-fit book their own interval.
//   - acq-max books only the part of its interval that no leaf booked: it
//     wraps the fan-out it journals after.
//   - A leaf overlapping an earlier booking is clipped at the cursor, so the
//     overlap goes to the event journalled first.
//
// CPU is the sum of event walls for compile, measure and gp-fit. For
// acquisition it is the booked elapsed time: the tuner goroutine is idle
// while the workers compile.
type timeline struct {
	offsetNS, lastNS, firstNS int64
	started                   bool

	cursorNS int64
	fanout   []interval // the open run of compile events, not booked yet
	totals   map[Phase]*PhaseTotal
}

// interval is one operation on the spliced run timeline.
type interval struct{ startNS, endNS int64 }

// placement is where the timeline put one event.
type placement struct {
	atNS int64 // when the event was journalled, on the spliced timeline
	// phase is "" for an event without wall time. Otherwise span is the
	// operation's interval and cpuNS its share of the phase's CPU.
	phase Phase
	span  interval
	cpuNS int64
}

// timedPhase is the phase of a timed event type, "" for the rest.
func timedPhase(typ string) Phase {
	switch typ {
	case "compile":
		return PhaseCompile
	case "measure":
		return PhaseMeasure
	case "gp-fit":
		return PhaseGPFit
	case "acq-max":
		return PhaseAcq
	}
	return ""
}

// feed places e and books it.
func (tl *timeline) feed(e *obs.Event) placement {
	p := placement{atNS: tl.splice(e.TimeNS), phase: timedPhase(e.Type)}
	if p.phase == "" {
		return p
	}
	wall := int64(obs.FieldFloat(e.Fields, "wall_ns"))
	end := opEnd(e, p.atNS)
	p.span = interval{min(max(end-wall, tl.firstNS), end), end}
	p.cpuNS = wall
	switch p.phase {
	case PhaseCompile:
		tl.fanout = append(tl.fanout, p.span)
	case PhaseAcq:
		p.cpuNS = tl.bookAcq(p.span)
	default:
		tl.bookFanout()
		tl.book(p.phase, p.span)
	}
	t := tl.total(p.phase)
	t.CPUNS += p.cpuNS
	t.Events++
	return p
}

// splice maps a recorder timestamp onto the monotone run timeline.
func (tl *timeline) splice(raw int64) int64 {
	t := raw + tl.offsetNS
	if t < tl.lastNS {
		// The recorder clock restarted (a resume in a new process):
		// splice the new epoch onto the end of the old one.
		tl.offsetNS = tl.lastNS
		t = raw + tl.offsetNS
	}
	tl.lastNS = t
	if !tl.started {
		tl.firstNS, tl.cursorNS, tl.started = t, t, true
	}
	return t
}

// opEnd places the end of e's operation on a timeline where e is journalled
// at t. An event is journalled when its operation ends, except a compile:
// compiles fan out and are journalled serially after the barrier, so each
// carries its own end_ns, and it ended that long before its t_ns. A compile
// from a journal older than end_ns ends at t.
func opEnd(e *obs.Event, t int64) int64 {
	if _, ok := e.Fields["end_ns"]; !ok {
		return t
	}
	if lag := e.TimeNS - int64(obs.FieldFloat(e.Fields, "end_ns")); lag > 0 {
		return t - lag
	}
	return t
}

func (tl *timeline) total(p Phase) *PhaseTotal {
	if tl.totals == nil {
		tl.totals = map[Phase]*PhaseTotal{}
	}
	t := tl.totals[p]
	if t == nil {
		t = &PhaseTotal{Phase: p}
		tl.totals[p] = t
	}
	return t
}

// book gives the part of iv above the cursor to phase p.
func (tl *timeline) book(p Phase, iv interval) {
	if from := max(iv.startNS, tl.cursorNS); iv.endNS > from {
		tl.total(p).ElapsedNS += iv.endNS - from
		tl.cursorNS = iv.endNS
	}
}

// fanoutUnion merges the open fan-out's intervals, clipped at the cursor,
// into disjoint intervals in time order. It leaves tl.fanout as it is.
func (tl *timeline) fanoutUnion() []interval {
	ivs := slices.Clone(tl.fanout)
	slices.SortFunc(ivs, func(a, b interval) int { return cmp.Compare(a.startNS, b.startNS) })
	var out []interval
	for _, iv := range ivs {
		iv.startNS = max(iv.startNS, tl.cursorNS)
		if iv.endNS <= iv.startNS {
			continue
		}
		if n := len(out); n > 0 && iv.startNS <= out[n-1].endNS {
			out[n-1].endNS = max(out[n-1].endNS, iv.endNS)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// bookFanout closes the open fan-out and books the union of its intervals.
func (tl *timeline) bookFanout() {
	for _, iv := range tl.fanoutUnion() {
		tl.book(PhaseCompile, iv)
	}
	tl.fanout = tl.fanout[:0]
}

// bookAcq books the part of an acq-max interval that neither an earlier
// booking nor the fan-out it wraps covers, and returns it.
func (tl *timeline) bookAcq(iv interval) int64 {
	from := max(iv.startNS, tl.cursorNS)
	acq := max(iv.endNS-from, 0)
	for _, c := range tl.fanoutUnion() {
		acq -= max(min(c.endNS, iv.endNS)-max(c.startNS, from), 0)
	}
	tl.bookFanout()
	tl.total(PhaseAcq).ElapsedNS += acq
	tl.cursorNS = max(tl.cursorNS, iv.endNS)
	return acq
}

// wallNS is the journal's extent on the spliced timeline.
func (tl *timeline) wallNS() int64 { return tl.lastNS - tl.firstNS }

// phases snapshots the booking in report order, the open fan-out booked as
// if it closed now. "other" is what no phase booked, so the ElapsedNS of
// all phases sum to wallNS exactly.
func (tl *timeline) phases() []PhaseTotal {
	out := make([]PhaseTotal, 0, len(Phases))
	var booked int64
	for _, p := range Phases {
		if p == PhaseOther {
			continue
		}
		t := PhaseTotal{Phase: p}
		if tl.totals[p] != nil {
			t = *tl.totals[p]
		}
		if p == PhaseCompile {
			for _, iv := range tl.fanoutUnion() {
				t.ElapsedNS += iv.endNS - iv.startNS
			}
		}
		booked += t.ElapsedNS
		out = append(out, t)
	}
	return append(out, PhaseTotal{Phase: PhaseOther, ElapsedNS: tl.wallNS() - booked})
}
