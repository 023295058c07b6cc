package gp

import (
	"math"
	"math/rand"
	"testing"
)

func sameHypers(a, b *GP) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-12*math.Abs(y) }
	if len(a.LS) != len(b.LS) || !near(a.SigF, b.SigF) || !near(a.Noise, b.Noise) {
		return false
	}
	for i := range a.LS {
		if !near(a.LS[i], b.LS[i]) {
			return false
		}
	}
	return true
}

// TestUpdateDecisionTable walks gp.Update through every step of its rule:
// which Step it reports, whether it hands back prev itself, where the
// hyperparameters start.
func TestUpdateDecisionTable(t *testing.T) {
	X, Y := randHistory(rand.New(rand.NewSource(2)), 12, 2)
	opts := DefaultOptions()
	opts.AdamSteps = 10
	noAdam := opts
	noAdam.AdamSteps = 0
	const every = 3
	fitPrev := func() *GP {
		g, err := Fit(X[:8], Y[:8], opts)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wide := make([][]float64, 9)
	for i := range wide {
		wide[i] = append(append([]float64(nil), X[i]...), 0.5)
	}
	copies := make([][]float64, 8)
	for i := range copies {
		copies[i] = append([]float64(nil), X[i]...)
	}
	defaults := &GP{LS: []float64{0.5, 0.5, 0.5}, SigF: 1, Noise: 1e-3}
	plusRow := func(row []float64) [][]float64 {
		return append(append([][]float64(nil), X[:8]...), row)
	}

	for _, c := range []struct {
		name    string
		noPrev  bool
		corrupt func(*GP) // applied to prev before the update
		X       [][]float64
		Y       []float64
		iter    int
		opts    *Options // nil: opts
		want    Step
		same    bool // Update hands back prev itself
		hypers  func(prev *GP) *GP
		wantErr bool
	}{
		{name: "first fit", noPrev: true, X: X[:8], Y: Y[:8], iter: 1, want: Fitted},
		{name: "refit iteration", X: X[:9], Y: Y[:9], iter: 3, want: Fitted},
		{name: "refit starts from prev", X: X[:9], Y: Y[:9], iter: 3, want: Fitted,
			opts: &noAdam, hypers: func(prev *GP) *GP { return prev }},
		{name: "kept", X: X[:8], Y: Y[:8], iter: 1, want: Kept, same: true},
		{name: "append", X: X[:9], Y: Y[:9], iter: 1, want: Appended, same: true},
		{name: "two new rows", X: X[:10], Y: Y[:10], iter: 1, want: Fitted,
			hypers: func(prev *GP) *GP { return prev }},
		{name: "window slid", X: X[1:9], Y: Y[1:9], iter: 1, want: Fitted,
			hypers: func(prev *GP) *GP { return prev }},
		{name: "equal values in other rows", X: copies, Y: Y[:8], iter: 1, want: Fitted,
			hypers: func(prev *GP) *GP { return prev }},
		{name: "width grown", X: wide, Y: Y[:9], iter: 1, want: Fitted,
			hypers: func(*GP) *GP { return defaults }},
		{name: "append fails, frozen refit recovers",
			corrupt: func(g *GP) { g.Noise = -g.SigF },
			X:       X[:9], Y: Y[:9], iter: 1, want: Fitted,
			hypers: func(prev *GP) *GP { return &GP{LS: prev.LS, SigF: prev.SigF, Noise: opts.NoiseCeil} }},
		{name: "unrecoverable row", X: plusRow([]float64{math.NaN(), 0.5}), Y: Y[:9], iter: 1, wantErr: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			var prev *GP
			if !c.noPrev {
				prev = fitPrev()
				if c.corrupt != nil {
					c.corrupt(prev)
				}
			}
			var ref GP
			if prev != nil {
				ref = *prev
				ref.LS = append([]float64(nil), prev.LS...)
			}
			o := opts
			if c.opts != nil {
				o = *c.opts
			}
			g, step, err := Update(prev, c.X, c.Y, c.iter, every, o)
			if c.wantErr {
				if err == nil {
					t.Fatalf("got %v, want an error", step)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if step != c.want {
				t.Fatalf("step %v, want %v", step, c.want)
			}
			if (g == prev) != c.same {
				t.Fatalf("returned prev itself: %v, want %v", g == prev, c.same)
			}
			if len(g.X) != len(c.X) {
				t.Fatalf("model has %d rows, want %d", len(g.X), len(c.X))
			}
			if c.hypers != nil {
				if w := c.hypers(&ref); !sameHypers(g, w) {
					t.Fatalf("hyperparameters ls=%v sigf=%v noise=%v, want ls=%v sigf=%v noise=%v",
						g.LS, g.SigF, g.Noise, w.LS, w.SigF, w.Noise)
				}
			}
		})
	}
}
