package obs

import (
	"bytes"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// A nil Recorder must be completely free: no allocations on any method, so a
// tuner built without a sink pays only the nil check.
func TestNilRecorderAllocationFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	set := CounterSet{{Name: "cache_hits", Value: 3}}
	allocs := testing.AllocsPerRun(100, func() {
		r.RunStart(nil)
		r.Iteration(1, 2, 3)
		r.CandidateGenerated(1, "m", "ga", 10, 42)
		r.Compile(1, "m", 10, 42, true, time.Second, time.Time{})
		r.GPFit(1, 5, 7, false, time.Second)
		r.AcqMax(1, 9, 0, "m", 0.5, false, 2, time.Second)
		r.Measure(1, "m", 3, nil, 100, 1.1, 1.2, true, false, time.Second)
		r.Stats(1, set)
		r.NewIncumbent(1, "m", 3, 1.2)
		r.RunEnd(1, nil)
	})
	if allocs != 0 {
		t.Fatalf("nil recorder allocated %v times per run", allocs)
	}
}

func TestRecorderSequencingAndSpans(t *testing.T) {
	mem := &MemorySink{}
	r := NewRecorder(mem)
	run := r.RunStart(map[string]any{"budget": 5})
	iter := r.Iteration(run, 0, 0)
	r.Compile(iter, "m", 3, 99, true, time.Millisecond, time.Time{})
	r.RunEnd(run, map[string]any{"best_speedup": 1.5})

	ev := mem.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
	}
	if run == 0 || iter == 0 || run == iter {
		t.Fatalf("span ids not distinct: run=%d iter=%d", run, iter)
	}
	if ev[1].Parent != run {
		t.Fatalf("iteration parent = %d, want %d", ev[1].Parent, run)
	}
	if ev[2].Parent != iter || ev[2].Span != 0 {
		t.Fatalf("compile span/parent = %d/%d, want 0/%d", ev[2].Span, ev[2].Parent, iter)
	}
}

// Canonicalize must strip exactly the nondeterministic parts: timestamps,
// "_ns"-suffixed fields (recursively) and "env_"-prefixed fields.
func TestCanonicalizeStripsTimingAndEnv(t *testing.T) {
	in := []Event{{
		Seq: 1, TimeNS: 123, Type: "run-end", Span: 1,
		Fields: map[string]any{
			"best":        1.5,
			"wall_ns":     int64(10),
			"env_workers": 8,
			"breakdown":   map[string]any{"gp_fit_ns": int64(5), "count": 3},
			"rows":        []any{map[string]any{"wall_ns": int64(7), "pass": "gvn"}},
		},
	}}
	got := Canonicalize(in)[0]
	want := Event{
		Seq: 1, Type: "run-end", Span: 1,
		Fields: map[string]any{
			"best":      1.5,
			"breakdown": map[string]any{"count": 3},
			"rows":      []any{map[string]any{"pass": "gvn"}},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonicalized = %#v, want %#v", got, want)
	}
	// The input must not be mutated.
	if _, ok := in[0].Fields["wall_ns"]; !ok || in[0].TimeNS != 123 {
		t.Fatal("Canonicalize mutated its input")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := NewRecorder(sink)
	run := r.RunStart(map[string]any{"budget": 7, "feature": "stats"})
	r.Measure(run, "mod", 1, []string{"mem2reg", "sroa"}, 123.5, 1.25, 1.25, true, false, time.Millisecond)
	r.RunEnd(run, map[string]any{"best_speedup": 1.25})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[0].Type != "run-start" || fieldInt(events[0].Fields, "budget") != 7 {
		t.Fatalf("run-start mangled: %+v", events[0])
	}
	m := events[1]
	if m.Type != "measure" || FieldFloat(m.Fields, "speedup") != 1.25 ||
		m.Fields["module"] != "mod" || !FieldBool(m.Fields, "ok") {
		t.Fatalf("measure mangled: %+v", m)
	}
	if got, ok := FieldStrings(m.Fields, "passes"); !ok || !slices.Equal(got, []string{"mem2reg", "sroa"}) {
		t.Fatalf("measure passes = %v (%v), want [mem2reg sroa]", m.Fields["passes"], ok)
	}
	if events[2].Type != "run-end" || FieldFloat(events[2].Fields, "best_speedup") != 1.25 {
		t.Fatalf("run-end mangled: %+v", events[2])
	}
}

func TestReadJournalRejectsMalformedLine(t *testing.T) {
	_, err := ReadJournal(strings.NewReader("{\"seq\":1}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestMultiSink(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi with no live sinks must return nil")
	}
	a, b := &MemorySink{}, &MemorySink{}
	if got := Multi(nil, a); got != Sink(a) {
		t.Fatal("Multi with one live sink must return it directly")
	}
	m := Multi(a, nil, b)
	m.Emit(&Event{Seq: 1, Type: "x"})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Fatal("multi sink did not fan out")
	}
}

// Histogram le semantics: a sample lands in the first bucket whose upper
// bound is >= the value; above the last bound it lands in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	wantUpper := []float64{1, 2, 4, math.Inf(1)}
	wantCum := []int64{2, 4, 5, 7} // le=1: {0.5,1}; le=2: +{1.0001,2}; le=4: +{4}; +Inf: +{4.0001,100}
	if len(snap) != len(wantUpper) {
		t.Fatalf("got %d buckets, want %d", len(snap), len(wantUpper))
	}
	for i, b := range snap {
		if b.Upper != wantUpper[i] || b.Cumulative != wantCum[i] {
			t.Fatalf("bucket %d = {%g, %d}, want {%g, %d}", i, b.Upper, b.Cumulative, wantUpper[i], wantCum[i])
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0001+2+4+4.0001+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestNilMetricsReturnsLiveInstruments(t *testing.T) {
	var m *Metrics
	c := m.Counter("x_total")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter not live")
	}
	g := m.Gauge("g")
	g.Set(2.5)
	g.Add(0.5)
	if g.Value() != 3 {
		t.Fatal("detached gauge not live")
	}
	h := m.Histogram("h", DurationBuckets)
	h.Observe(0.1)
	if h.Count() != 1 {
		t.Fatal("detached histogram not live")
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry must render nothing")
	}
}

func TestMetricsRegistryGetOrCreate(t *testing.T) {
	m := NewMetrics()
	if m.Counter("a_total") != m.Counter("a_total") {
		t.Fatal("counter lookup not stable")
	}
	if m.Histogram("h", []float64{1, 2}) != m.Histogram("h", []float64{9}) {
		t.Fatal("histogram lookup not stable")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.Counter("jobs_total").Add(3)
	m.Counter(`per_pass_total{pass="gvn"}`).Add(2)
	m.Counter(`per_pass_total{pass="adce"}`).Add(1)
	m.Gauge("depth").Set(1.5)
	h := m.Histogram("lat_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(3)

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE jobs_total counter\njobs_total 3\n",
		"# TYPE per_pass_total counter\nper_pass_total{pass=\"adce\"} 1\nper_pass_total{pass=\"gvn\"} 2\n",
		"# TYPE depth gauge\ndepth 1.5\n",
		"lat_seconds_bucket{le=\"1\"} 1\n",
		"lat_seconds_bucket{le=\"2\"} 1\n",
		"lat_seconds_bucket{le=\"+Inf\"} 2\n",
		"lat_seconds_sum 3.5\n",
		"lat_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Families must be sorted: depth < jobs_total < lat_seconds < per_pass_total.
	if !(strings.Index(out, "# TYPE depth") < strings.Index(out, "# TYPE jobs_total") &&
		strings.Index(out, "# TYPE jobs_total") < strings.Index(out, "# TYPE lat_seconds") &&
		strings.Index(out, "# TYPE lat_seconds") < strings.Index(out, "# TYPE per_pass_total")) {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestServeMetricsAndPprof(t *testing.T) {
	m := NewMetrics()
	m.Counter("hits_total").Inc()
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	get := func(path string) string {
		resp, err := httpGet("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if body := get("/metrics"); !strings.Contains(body, "hits_total 1") {
		t.Fatalf("/metrics = %q", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// Appended journals must continue sequence numbering monotonically and
// repair a torn tail left behind by a killed process.
func TestAppendJSONLFileContinuesSeq(t *testing.T) {
	path := t.TempDir() + "/journal.jsonl"
	s1, err := AppendJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewRecorder(s1)
	span := r1.RunStart(map[string]any{"budget": 1})
	r1.Measure(span, "m", 1, nil, 100, 1.1, 1.1, true, false, 0)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-write: a torn trailing line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"type":"mea`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := AppendJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.BaseSeq() != 2 {
		t.Fatalf("BaseSeq = %d, want 2 (torn line dropped)", s2.BaseSeq())
	}
	r2 := NewRecorder(s2)
	r2.RunStart(map[string]any{"budget": 1})
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadJournalFile(path)
	if err != nil {
		t.Fatalf("appended journal unreadable: %v", err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (torn tail repaired)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("seq not monotonic at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	if events[2].Seq != 3 || events[2].Type != "run-start" {
		t.Fatalf("resumed event = %+v, want seq 3 run-start", events[2])
	}
}

func TestMultiSinkBaseSeq(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	s, err := CreateJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	NewRecorder(s).RunStart(nil)
	s.Close()
	app, err := AppendJSONLFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	m := Multi(&MemorySink{}, app)
	b, ok := m.(SeqBase)
	if !ok {
		t.Fatal("multi sink does not expose SeqBase")
	}
	if b.BaseSeq() != 1 {
		t.Fatalf("multi BaseSeq = %d, want 1", b.BaseSeq())
	}
}

// A client that sends half a request line and stops is dropped once the
// header timeout passes, instead of holding its connection forever.
func TestServeDropsHalfSentHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	srv, err := Serve("127.0.0.1:0", NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v: the half-sent header is never timed out", time.Since(start).Round(time.Millisecond))
	}
}

func TestMetricsServerShutdown(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if _, err := httpGet("http://" + addr + "/metrics"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(nil); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if _, err := httpGet("http://" + addr + "/metrics"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}
