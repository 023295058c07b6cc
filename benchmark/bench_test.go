package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10.2, 9.8, 10.0, 10.9, 9.9], n=4) == [9.85, 10.0, 10.55]
	q1, q2, q3 = quartiles([]float64{10.2, 9.8, 10.0, 10.9, 9.9})
	if math.Abs(q1-9.85) > 1e-12 || q2 != 10.0 || math.Abs(q3-10.55) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 9.85 10 10.55", q1, q2, q3)
	}
	if s := spread([]float64{7}); s != 0 {
		t.Errorf("spread of one value = %v, want 0", s)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "compiles_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	noisy := []float64{8, 12, 10, 14, 7}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"within bound", lower, steady, []float64{10.5, 10.6, 10.4}, verdictOK},
		{"slower than bound", lower, steady, []float64{11.5, 11.6, 11.4}, verdictWorse},
		{"faster", lower, steady, []float64{5, 5.1, 4.9}, verdictOK},
		{"rate fell", higher, steady, []float64{8, 8.1, 7.9}, verdictWorse},
		{"rate rose", higher, steady, []float64{13, 13.1, 12.9}, verdictOK},
		{"parent too noisy to tell", lower, noisy, []float64{10, 10.1}, verdictUnresolved},
		{"noisy but every run better", lower, noisy, []float64{5, 6}, verdictOK},
	} {
		if got := judge(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, walls ...float64) string {
		path := filepath.Join(dir, name)
		for _, w := range walls {
			rec := record{Workload: "gsm_bo", Metrics: map[string]float64{"wall_s": w, "best_speedup": 2}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		// A traced record must not be mistaken for end-to-end numbers.
		if err := appendRecord(path, record{Workload: "gsm_bo", Trace: 1, Metrics: map[string]float64{"wall_s": 1e9}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldP := write("old.jsonl", 10, 10.1, 9.9)
	var out bytes.Buffer
	worse, err := compareFiles(&out, oldP, write("same.jsonl", 10.2, 10, 10.1))
	if err != nil || worse {
		t.Fatalf("equal runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "geomean") || !strings.Contains(out.String(), "best_speedup") {
		t.Errorf("missing rows:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, oldP, write("slow.jsonl", 15, 15.1, 14.9))
	if err != nil || !worse {
		t.Fatalf("1.5x slower: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func TestDigest(t *testing.T) {
	mk := func(compiles int64, best float64) string {
		p := &pass{compiles: compiles, bests: []float64{best}}
		return p.countsDigest()
	}
	if mk(10, 1.5) != mk(10, 1.5) {
		t.Error("digest is not a function of the counts")
	}
	if mk(10, 1.5) == mk(11, 1.5) {
		t.Error("digest ignores the compile count")
	}
	if mk(10, 1.5) == mk(10, math.Nextafter(1.5, 2)) {
		t.Error("digest ignores the last bit of best_speedup")
	}
	// Times and scheduling-dependent counters must stay out.
	a := &pass{compiles: 3, bests: []float64{1}}
	b := &pass{compiles: 3, bests: []float64{1}, wall: 5, stray: 7, allocBytes: 9, snapPeak: 11}
	if a.countsDigest() != b.countsDigest() {
		t.Error("digest depends on a time, byte or pool counter")
	}
}

func TestClassify(t *testing.T) {
	for msg, want := range map[string]int{
		"passes: IR invalid after sequence: bad phi": classInvalidIR,
		"bench: differential test failed: output 3":  classMiscompile,
		"bench: unknown module \"x\"":                classOther,
	} {
		if got := classify(errors.New(msg)); got != want {
			t.Errorf("classify(%q) = %s, want %s", msg, classNames[got], classNames[want])
		}
	}
}

func TestScaledBudget(t *testing.T) {
	w := workloadByName("gsm_bo")
	if got := w.scaledBudget(nominalSeconds); got != w.budget {
		t.Errorf("nominal seconds give budget %d, want %d", got, w.budget)
	}
	if got := w.scaledBudget(1); got != minBudget {
		t.Errorf("one second gives budget %d, want the floor %d", got, minBudget)
	}
	if got := w.scaledBudget(2 * nominalSeconds); got != 2*w.budget {
		t.Errorf("double seconds give budget %d, want %d", got, 2*w.budget)
	}
}

// BENCHMARK.json at the repository root is rendered from the tables in this
// package (-manifest); the two must not drift apart.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside benchmark/:", err)
	}
	tmp, err := os.Create(filepath.Join(t.TempDir(), "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := printManifest(tmp); err != nil {
		t.Fatal(err)
	}
	rendered, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(committed, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &got); err != nil {
		t.Fatal(err)
	}
	w, _ := json.Marshal(want)
	g, _ := json.Marshal(got)
	if !bytes.Equal(w, g) {
		t.Errorf("BENCHMARK.json differs from `-manifest`; regenerate it with\n  bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

// A one-second run of every workload, traced: the golden outputs match, the
// traced and untraced passes agree on every count, every declared metric is
// reported, and the span file is written.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			traced := !testing.Short()
			ok, err := runWorkload(w, 1, 1, traced, false, "")
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("a correctness check failed (see golden_mismatch / digest_mismatch above)")
			}
			if !traced {
				return
			}
			data, err := os.ReadFile(filepath.Join(outDir(), w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				PerLayer map[string]float64 `json:"per_layer"`
				Spans    []span             `json:"spans"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			for _, s := range perLayer {
				if _, have := doc.PerLayer[s.Name]; !have {
					t.Errorf("trace file lacks per-layer metric %s", s.Name)
				}
			}
			if len(doc.Spans) == 0 {
				t.Error("trace file has no spans")
			}
			for _, s := range doc.Spans {
				if s.EndNS < s.StartNS {
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
					break
				}
			}
		})
	}
}
