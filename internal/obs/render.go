package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// TextRenderer is a Sink that renders journal events as the human-readable
// verbose trace. Feeding the renderer and a JSONLSink from one Multi sink
// guarantees the -v output and the journal can never diverge: both are
// views of the same event stream.
type TextRenderer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextRenderer renders events onto w.
func NewTextRenderer(w io.Writer) *TextRenderer { return &TextRenderer{w: w} }

// renderers maps every journal event type to its one-line renderer. The
// table must cover every Type a Recorder method can emit — enforced by
// TestRendererCoversAllEventTypes — so a new event type can never silently
// render blank in the -v trace.
var renderers = map[string]func(w io.Writer, e *Event){
	"run-start": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "run-start: budget=%v lambda=%v feature=%v modules=%v\n",
			f["budget"], f["lambda"], f["feature"], f["hot_modules"])
	},
	"iteration": func(w io.Writer, e *Event) {
		fmt.Fprintf(w, "iter %d (budget used %d)\n",
			fieldInt(e.Fields, "iter"), fieldInt(e.Fields, "budget_used"))
	},
	"candidate-generated": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "  cand      module %-14s gen %-8s len %d\n",
			f["module"], f["generator"], fieldInt(f, "seq_len"))
	},
	"compile": func(w io.Writer, e *Event) {
		f := e.Fields
		status := "ok"
		if !FieldBool(f, "ok") {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  compile   module %-14s %3d passes  %s (%v)\n",
			f["module"], fieldInt(f, "seq_len"), status,
			time.Duration(fieldInt64(f, "wall_ns")).Round(time.Microsecond))
	},
	"gp-fit": func(w io.Writer, e *Event) {
		f := e.Fields
		mode := "refit"
		if FieldBool(f, "appended") {
			mode = "append"
		}
		fmt.Fprintf(w, "  gp-fit: %d points, %d dims (%s)\n",
			fieldInt(f, "points"), fieldInt(f, "dim"), mode)
	},
	"acq-max": func(w io.Writer, e *Event) {
		f := e.Fields
		dup := ""
		if FieldBool(f, "dup") {
			dup = " (duplicate statistics)"
		}
		fmt.Fprintf(w, "  acq: argmax over %d candidates -> module %v (af %.4g, %d novel dims)%s\n",
			fieldInt(f, "candidates"), f["module"], FieldFloat(f, "af"),
			fieldInt(f, "novel_dims"), dup)
	},
	"measure": func(w io.Writer, e *Event) {
		f := e.Fields
		if !FieldBool(f, "ok") {
			fmt.Fprintf(w, "  meas ---  module %-14s FAILED (differential test or build)\n", f["module"])
			return
		}
		if FieldBool(f, "reused") {
			fmt.Fprintf(w, "  meas ---  module %-14s speedup %.3fx  (duplicate statistics, measurement reused)\n",
				f["module"], FieldFloat(f, "speedup"))
			return
		}
		fmt.Fprintf(w, "  meas %3d  module %-14s speedup %.3fx  best %.3fx\n",
			fieldInt(f, "measurement"), f["module"],
			FieldFloat(f, "speedup"), FieldFloat(f, "best"))
	},
	"stats": func(w io.Writer, e *Event) {
		keys := make([]string, 0, len(e.Fields))
		for k := range e.Fields {
			if !strings.HasPrefix(k, "env_") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprint(w, "  stats:")
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%d", k, fieldInt64(e.Fields, k))
		}
		fmt.Fprintln(w)
	},
	"planner-build": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "  planner: module %-14s %d nodes, %d edges (%d probes) -> %d-pass plan\n",
			f["module"], fieldInt(f, "nodes"), fieldInt(f, "edges"),
			fieldInt(f, "probe_compiles"), fieldInt(f, "plan_len"))
	},
	"fleet-incident": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "  fleet: %v runner %v module %v (attempt %d)\n",
			f["kind"], f["runner"], f["module"], fieldInt(f, "attempt"))
	},
	"new-incumbent": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "  ** new incumbent: %.3fx (module %v, measurement %d)\n",
			FieldFloat(f, "speedup"), f["module"], fieldInt(f, "measurement"))
	},
	"checkpoint": func(w io.Writer, e *Event) {
		fmt.Fprintf(w, "  checkpoint: %d measurements, best %.3fx\n",
			fieldInt(e.Fields, "measurements"), FieldFloat(e.Fields, "best"))
	},
	"resume": func(w io.Writer, e *Event) {
		fmt.Fprintf(w, "resume: replayed %d observations, best %.3fx\n",
			fieldInt(e.Fields, "replayed"), FieldFloat(e.Fields, "best"))
	},
	"run-end": func(w io.Writer, e *Event) {
		f := e.Fields
		fmt.Fprintf(w, "run-end: best %.3fx, %d measurements, %d compilations\n",
			FieldFloat(f, "best_speedup"), fieldInt(f, "measurements"), fieldInt(f, "compilations"))
	},
}

// RenderedTypes returns the sorted event types the text renderer displays.
func RenderedTypes() []string {
	out := make([]string, 0, len(renderers))
	for t := range renderers {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Emit implements Sink.
func (t *TextRenderer) Emit(e *Event) {
	r := renderers[e.Type]
	if r == nil {
		// Unknown type (journal from a newer build): render raw rather than
		// blank, so nothing is ever silently swallowed.
		t.mu.Lock()
		fmt.Fprintf(t.w, "  %s: %v\n", e.Type, e.Fields)
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	r(t.w, e)
	t.mu.Unlock()
}

func fieldInt64(f map[string]any, key string) int64 { return int64(FieldFloat(f, key)) }
