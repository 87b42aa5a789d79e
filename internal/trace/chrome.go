package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"siteselect/internal/netsim"
)

// chromeEvent is one entry of the Chrome trace-event JSON format
// (loadable by chrome://tracing and Perfetto). pid maps to a site track
// and tid to a transaction, so each site shows its transactions'
// attribution spans side by side.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// usOf converts a simulated duration to trace-event microseconds.
func usOf(d int64) float64 { return float64(d) / 1e3 }

// WriteChrome exports every trace as Chrome trace-event JSON: one
// process per site ("server", "client-N"), one thread per transaction,
// "X" complete events for the attribution phases, and instant events
// for the point timeline. Output order is deterministic.
func (tr *Tracer) WriteChrome(w io.Writer) error {
	if tr == nil {
		return fmt.Errorf("trace: tracer is nil (tracing was not enabled)")
	}
	sites := map[netsim.SiteID]bool{}
	var events []chromeEvent
	for _, tt := range tr.order {
		tr.EachEvent(tt, func(ev Event) {
			sites[ev.Site] = true
			ce := chromeEvent{
				Name: ev.Type.String(),
				Cat:  "txn",
				Ts:   usOf(int64(ev.T)),
				Pid:  int64(ev.Site),
				Tid:  int64(tt.ID),
			}
			switch ev.Type {
			case EvPhase:
				ce.Ph = "X"
				ce.Name = ev.Comp.String()
				ce.Cat = "phase"
				ce.Dur = usOf(int64(ev.Dur))
			case EvFinished:
				ce.Ph = "i"
				ce.S = "t"
				ce.Args = map[string]any{
					"status":  ev.A,
					"elapsed": tt.Elapsed().String(),
				}
				for c := Component(0); c < NumComponents; c++ {
					if tt.Buckets[c] > 0 {
						ce.Args[c.String()] = tt.Buckets[c].String()
					}
				}
			default:
				ce.Ph = "i"
				ce.S = "t"
				args := map[string]any{}
				if ev.Obj != 0 || ev.Type == EvLockRequested || ev.Type == EvLockGranted {
					args["obj"] = int64(ev.Obj)
				}
				if ev.A != 0 {
					args["a"] = ev.A
				}
				if ev.B != 0 {
					args["b"] = ev.B
				}
				if len(args) > 0 {
					ce.Args = args
				}
			}
			events = append(events, ce)
		})
	}
	var meta []chromeEvent
	ordered := make([]netsim.SiteID, 0, len(sites))
	for s := range sites {
		ordered = append(ordered, s)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, s := range ordered {
		name := fmt.Sprintf("client-%d", s)
		if s == netsim.ServerSite {
			name = "server"
		}
		meta = append(meta, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  int64(s),
			Args: map[string]any{"name": name},
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
