package policy

import (
	"fmt"
	"math"
	"strings"
)

// Event names a network or NF event whose running count drives stateful
// policies, e.g. "failed-connections" (Fig 9b) or "bad-signature" (Fig 1b).
type Event string

// Common event kinds from the paper's examples.
const (
	FailedConnections Event = "failed-connections"
	BadSignature      Event = "bad-signature"
	Solicited         Event = "solicited"
)

// CountRange is a half-open interval [Lo, Hi) over an event counter.
// A stateful edge is active while the counter lies in the range.
// Hi = Unbounded means no upper limit.
type CountRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Unbounded marks a CountRange with no upper limit.
const Unbounded = math.MaxInt32

// FullRange matches every counter value.
func FullRange() CountRange { return CountRange{Lo: 0, Hi: Unbounded} }

// Contains reports whether counter value v lies in the range.
func (r CountRange) Contains(v int) bool {
	return v >= r.Lo && v < r.Hi
}

// Empty reports whether the range matches no value.
func (r CountRange) Empty() bool { return r.Lo >= r.Hi }

// Intersect returns the overlap of two ranges; composing two stateful
// conditions on the same event requires both to hold (Fig 10a), which is
// range intersection. ok=false when the ranges are disjoint (">8 and <4
// failed connections cannot be satisfied simultaneously").
func (r CountRange) Intersect(o CountRange) (CountRange, bool) {
	out := CountRange{Lo: max(r.Lo, o.Lo), Hi: min(r.Hi, o.Hi)}
	if out.Empty() {
		return CountRange{}, false
	}
	return out, true
}

func (r CountRange) String() string {
	switch {
	case r.Lo == 0 && r.Hi == Unbounded:
		return "*"
	case r.Hi == Unbounded:
		return fmt.Sprintf(">=%d", r.Lo)
	case r.Lo == 0:
		return fmt.Sprintf("<%d", r.Hi)
	default:
		return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi)
	}
}

// StatefulCond is a conjunction of event-counter range predicates: the edge
// applies while every listed event's counter lies within its range (§4.2).
// An empty map is the always-true condition (the default/normal edge).
type StatefulCond struct {
	Ranges map[Event]CountRange `json:"ranges,omitempty"`
}

// Always returns the always-true stateful condition.
func Always() StatefulCond { return StatefulCond{} }

// WhenAtLeast returns the condition "counter(ev) >= n"
// (e.g. "> 4 failed connections" is WhenAtLeast(FailedConnections, 5)).
func WhenAtLeast(ev Event, n int) StatefulCond {
	return StatefulCond{Ranges: map[Event]CountRange{ev: {Lo: n, Hi: Unbounded}}}
}

// WhenBelow returns the condition "counter(ev) < n".
func WhenBelow(ev Event, n int) StatefulCond {
	return StatefulCond{Ranges: map[Event]CountRange{ev: {Lo: 0, Hi: n}}}
}

// IsAlways reports whether the condition holds in every state.
func (c StatefulCond) IsAlways() bool {
	for _, r := range c.Ranges {
		if r != FullRange() {
			return false
		}
	}
	return true
}

// Holds evaluates the condition against the current counters; a missing
// counter is treated as zero.
func (c StatefulCond) Holds(counters map[Event]int) bool {
	for ev, r := range c.Ranges {
		if !r.Contains(counters[ev]) {
			return false
		}
	}
	return true
}

// And intersects two stateful conditions; ok=false when the conjunction is
// unsatisfiable and the composed edge must be removed from the graph
// (Fig 10a).
func (c StatefulCond) And(o StatefulCond) (StatefulCond, bool) {
	out := StatefulCond{Ranges: make(map[Event]CountRange, len(c.Ranges)+len(o.Ranges))}
	for ev, r := range c.Ranges {
		out.Ranges[ev] = r
	}
	for ev, r := range o.Ranges {
		if prev, ok := out.Ranges[ev]; ok {
			merged, sat := prev.Intersect(r)
			if !sat {
				return StatefulCond{}, false
			}
			out.Ranges[ev] = merged
		} else {
			out.Ranges[ev] = r
		}
	}
	if len(out.Ranges) == 0 {
		out.Ranges = nil
	}
	return out, true
}

// Key returns a canonical string identity for the condition, used to group
// edges by state in the composed graph.
func (c StatefulCond) Key() string {
	if len(c.Ranges) == 0 {
		return "always"
	}
	parts := make([]string, 0, len(c.Ranges))
	for ev, r := range c.Ranges {
		parts = append(parts, fmt.Sprintf("%s:%s", ev, r))
	}
	sortStrings(parts)
	return strings.Join(parts, "&")
}

func (c StatefulCond) String() string { return c.Key() }

// TimeWindow is a half-open daily window [Start, End) in hours on a 24-hour
// clock (§4.2, Fig 9c: "time: 9 – 18"). Windows that wrap midnight
// (Start > End, e.g. 14 to 1) are supported and treated as the union
// [Start,24) ∪ [0,End). The zero TimeWindow means always-active.
type TimeWindow struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

// HoursPerDay is the length of the temporal cycle.
const HoursPerDay = 24

// AllDay matches every hour.
func AllDay() TimeWindow { return TimeWindow{0, HoursPerDay} }

// IsAllDay reports whether the window covers the full day. Both the zero
// value and the explicit {0,24} form qualify.
func (w TimeWindow) IsAllDay() bool {
	return (w.Start == 0 && w.End == 0) || (w.Start == 0 && w.End == HoursPerDay)
}

// normalized returns the window as one or two non-wrapping intervals.
func (w TimeWindow) normalized() []TimeWindow {
	if w.IsAllDay() {
		return []TimeWindow{{0, HoursPerDay}}
	}
	if w.Start <= w.End {
		return []TimeWindow{w}
	}
	// Wrapping window like 14–1 (Fig 6): [14,24) ∪ [0,1).
	return []TimeWindow{{w.Start, HoursPerDay}, {0, w.End}}
}

// Contains reports whether hour h (0–23) lies in the window.
func (w TimeWindow) Contains(h int) bool {
	h = ((h % HoursPerDay) + HoursPerDay) % HoursPerDay
	for _, seg := range w.normalized() {
		if h >= seg.Start && h < seg.End {
			return true
		}
	}
	return false
}

func (w TimeWindow) String() string {
	if w.IsAllDay() {
		return "all-day"
	}
	return fmt.Sprintf("%d-%d", w.Start, w.End)
}

// Validate checks the window bounds.
func (w TimeWindow) Validate() error {
	if w.Start < 0 || w.Start >= HoursPerDay {
		return fmt.Errorf("time window start %d out of [0,%d)", w.Start, HoursPerDay)
	}
	if w.End < 0 || w.End > HoursPerDay {
		return fmt.Errorf("time window end %d out of [0,%d]", w.End, HoursPerDay)
	}
	return nil
}

// Condition is the dynamic condition on a policy edge (§4.2): a stateful
// predicate and/or a temporal window. The zero Condition is
// always-active (a static edge).
type Condition struct {
	Stateful StatefulCond `json:"stateful,omitempty"`
	Window   TimeWindow   `json:"window,omitempty"`
}

// IsStatic reports whether the edge has no dynamic component.
func (c Condition) IsStatic() bool {
	return c.Stateful.IsAlways() && c.Window.IsAllDay()
}

// ActiveAt evaluates the condition at hour h with the given event counters.
func (c Condition) ActiveAt(h int, counters map[Event]int) bool {
	return c.Window.Contains(h) && c.Stateful.Holds(counters)
}

func (c Condition) String() string {
	var parts []string
	if !c.Stateful.IsAlways() {
		parts = append(parts, c.Stateful.String())
	}
	if !c.Window.IsAllDay() {
		parts = append(parts, "time:"+c.Window.String())
	}
	if len(parts) == 0 {
		return "always"
	}
	return strings.Join(parts, " & ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
