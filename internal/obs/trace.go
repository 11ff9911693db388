package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cyclicwin/internal/core"
	"cyclicwin/internal/regwin"
)

// Tracer records core window-management events into a bounded ring:
// the one recorder of the window-event stream, behind Chrome exports,
// job traces and the text rendering of Render and Summarise. Attaching
// it costs the manager one nil check per operation when detached and
// one ring store when attached — no allocation, no locking (the
// simulation is single-goroutine by construction).
type Tracer struct {
	ring    []core.Event
	next    uint64 // total events ever recorded
	limit   int
	names   map[int]string
	windows int // window-file size read at Attach; 0 when the manager has none
}

// DefaultTraceLimit bounds a trace ring when the caller does not choose
// a size.
const DefaultTraceLimit = 4096

// NewTracer returns a tracer keeping the most recent limit events
// (DefaultTraceLimit if limit <= 0).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	pre := limit
	if pre > 1024 {
		pre = 1024 // grow on demand past this
	}
	return &Tracer{limit: limit, ring: make([]core.Event, 0, pre)}
}

// Attach installs the tracer on m when the manager can report events
// (the NS, SNP and SP schemes and the Reference oracle), and reads the
// size of m's window file for WindowMap. It reports whether it
// attached; a manager without an event source yields false.
func (t *Tracer) Attach(m core.Manager) bool {
	src, ok := m.(core.EventSource)
	if !ok {
		return false
	}
	src.SetEventHook(t.observe)
	if f, ok := m.(interface{ File() *regwin.File }); ok {
		t.windows = f.File().NWindows()
	}
	return true
}

func (t *Tracer) observe(ev core.Event) {
	if len(t.ring) < t.limit {
		t.ring = append(t.ring, ev)
	} else {
		t.ring[int(t.next)%t.limit] = ev
	}
	t.next++
}

// SetThreadName labels a thread id for exports.
func (t *Tracer) SetThreadName(id int, name string) {
	if t.names == nil {
		t.names = make(map[int]string)
	}
	t.names[id] = name
}

// Events returns the recorded events, oldest first.
func (t *Tracer) Events() []core.Event {
	if t.next <= uint64(t.limit) {
		out := make([]core.Event, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]core.Event, 0, t.limit)
	start := int(t.next) % t.limit
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// Total reports how many events were recorded overall, including ones
// that fell out of the ring.
func (t *Tracer) Total() uint64 { return t.next }

// WindowMap renders the window file of an event as one character per
// slot: '*' the current window, 'o' a valid window, '.' an invalid
// one. It is empty for a manager without a window file (the Reference
// oracle).
func (t *Tracer) WindowMap(ev core.Event) string {
	var sb strings.Builder
	for w := 0; w < t.windows; w++ {
		switch {
		case w == ev.CWP:
			sb.WriteByte('*')
		case ev.WIM.Bit(w):
			sb.WriteByte('.')
		default:
			sb.WriteByte('o')
		}
	}
	return sb.String()
}

// Render writes the retained events as a table, one line per event,
// with the window map alongside. Sequence numbers count from the first
// event of the run, so a wrapped ring starts past 0.
func (t *Tracer) Render(w io.Writer) {
	fmt.Fprintf(w, "%6s %10s %4s %-12s %6s %6s %4s %s\n",
		"seq", "cycle", "thr", "event", "cost", "moved", "cwp", "windows (*=current o=valid .=invalid)")
	evs := t.Events()
	seq := t.next - uint64(len(evs))
	for i, ev := range evs {
		fmt.Fprintf(w, "%6d %10d %4d %-12s %6d %6d %4d %s\n",
			seq+uint64(i), ev.Cycle, ev.Thread, ev.Kind, ev.Cost, ev.Moved, ev.CWP, t.WindowMap(ev))
	}
}

// Summarise writes one line per event kind with counts and cycle sums
// over the retained events.
func (t *Tracer) Summarise(w io.Writer) {
	var counts [core.EvMigrate + 1]int
	var costs [core.EvMigrate + 1]uint64
	for _, ev := range t.Events() {
		counts[ev.Kind]++
		costs[ev.Kind] += ev.Cost
	}
	for k := core.EvSwitch; k <= core.EvMigrate; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(w, "%-12s %8d events %12d cycles\n", k, counts[k], costs[k])
		}
	}
}

// Snapshot packages the ring for transport (simsvc job results).
func (t *Tracer) Snapshot() *JobTrace {
	jt := &JobTrace{Total: t.next, Limit: t.limit, Events: t.Events()}
	if len(t.names) > 0 {
		jt.ThreadNames = make(map[int]string, len(t.names))
		for id, name := range t.names {
			jt.ThreadNames[id] = name
		}
	}
	return jt
}

// JobTrace is the wire form of one simulation's event trace: the ring
// contents plus enough metadata to tell whether events were dropped.
type JobTrace struct {
	// Total is how many events the run produced; when it exceeds
	// Limit, only the newest Limit events survive in Events.
	Total uint64 `json:"total_events"`
	Limit int    `json:"ring_limit"`
	// ThreadNames labels thread ids (JSON objects key by string).
	ThreadNames map[int]string `json:"thread_names,omitempty"`
	Events      []core.Event   `json:"events"`
}

// ChromeTrace accumulates trace_event JSON objects — the format of
// chrome://tracing and Perfetto. Cycle timestamps are mapped one cycle
// to one microsecond (the ts/dur unit of the format).
type ChromeTrace struct {
	events []chromeEvent
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	TS   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// NewChromeTrace returns an empty trace.
func NewChromeTrace() *ChromeTrace { return &ChromeTrace{} }

// AddProcess adds one simulation's trace as a trace_event process:
// pid/name identify the simulation (e.g. one figure cell), each thread
// becomes a trace thread, and each event a complete ("X") slice
// spanning the cycles it was charged. Zero-cost events still appear,
// as zero-duration slices.
func (c *ChromeTrace) AddProcess(pid int, name string, jt *JobTrace) {
	c.events = append(c.events, chromeEvent{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name},
	})
	seen := make(map[int]bool)
	for _, ev := range jt.Events {
		if !seen[ev.Thread] {
			seen[ev.Thread] = true
			tname := jt.ThreadNames[ev.Thread]
			if tname == "" {
				tname = fmt.Sprintf("thread %d", ev.Thread)
			}
			c.events = append(c.events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: ev.Thread,
				Args: map[string]any{"name": tname},
			})
		}
		dur := ev.Cost
		c.events = append(c.events, chromeEvent{
			Name: ev.Kind.String(),
			Ph:   "X",
			PID:  pid,
			TID:  ev.Thread,
			TS:   ev.Cycle - ev.Cost,
			Dur:  &dur,
			Args: map[string]any{
				"moved": ev.Moved,
				"cwp":   ev.CWP,
				"wim":   ev.WIM,
			},
		})
	}
}

// Encode writes the trace as a JSON object with a traceEvents array,
// the canonical trace_event container.
func (c *ChromeTrace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     c.events,
		"displayTimeUnit": "ns",
	})
}
