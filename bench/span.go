package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the instrumented pass: a call the
// benchmark made into a layer, or a group of such calls.
type span struct {
	name       string
	parent     int // index into recorder.spans, -1 at the root
	start, end time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how timed passes run with tracing off.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // stack of spans begun and not yet ended
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, start: time.Since(r.t0)})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.t0)
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// total sums the durations of the spans called name that lie under a
// span called under ("" for anywhere), starting at span index from.
func (r *recorder) total(from int, under, name string) time.Duration {
	var sum time.Duration
	for i := from; i < len(r.spans); i++ {
		s := r.spans[i]
		if s.name != name {
			continue
		}
		if under == "" || (s.parent >= 0 && r.spans[s.parent].name == under) {
			sum += s.end - s.start
		}
	}
	return sum
}

// writeChrome writes the spans in Chrome trace format (load the file in
// chrome://tracing or ui.perfetto.dev). args carry what that format has
// no field for: the span's id, its parent, the workload, self time.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.parent, "workload": r.workload,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
