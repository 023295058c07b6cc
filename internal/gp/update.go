package gp

// Step names what Update did to the surrogate.
type Step int

// Update steps.
const (
	Kept     Step = iota // X was prev's rows: prev is returned untouched
	Appended             // X was prev's rows plus one, absorbed by Append
	Fitted               // a new model: a full fit, or a hyperparameter-frozen refit
)

// Update brings the surrogate prev up to date with the training set (X, Y)
// on BO iteration iter, refitting hyperparameters every refitEvery
// iterations. It is the one update policy of CITROEN, AIBO and TuRBO:
//
//  1. On a refit iteration (prev == nil, refitEvery <= 1 or iter a multiple
//     of refitEvery) it fits from scratch, the hyperparameter search
//     warm-started from prev's hyperparameters when the input width is
//     unchanged.
//  2. Otherwise, when X is prev's rows — the very row slices prev was
//     trained on — prev already is the posterior and is kept.
//  3. When X is prev's rows plus one, the new row is Appended in O(n²).
//  4. Anything else (a window that slid, a width that grew, an Append that
//     failed) refits with prev's hyperparameters frozen: no Adam step. At a
//     changed width there are no hyperparameters to freeze, so that refit
//     keeps the defaults (0.5 length scales, unit signal, 1e-3 noise).
//
// Like Fit, the model keeps the row slices of X (not the outer slice's spare
// capacity); callers must not write to a row once it has been passed in.
func Update(prev *GP, X [][]float64, Y []float64, iter, refitEvery int, opts Options) (*GP, Step, error) {
	if prev == nil || refitEvery <= 1 || iter%refitEvery == 0 {
		g, err := fit(X, Y, opts, prev)
		return g, Fitted, err
	}
	if n := len(prev.X); len(X) >= n && sameRows(prev.X, X[:n]) {
		switch len(X) - n {
		case 0:
			return prev, Kept, nil
		case 1:
			if prev.Append(X[n], Y[n]) == nil {
				return prev, Appended, nil
			}
		}
	}
	opts.AdamSteps = 0
	g, err := fit(X, Y, opts, prev)
	return g, Fitted, err
}

// sameRows reports whether a and b hold the same row slices: the same
// backing memory at the same width, not merely equal values.
func sameRows(a, b [][]float64) bool {
	for i, r := range a {
		if len(r) != len(b[i]) || len(r) > 0 && &r[0] != &b[i][0] {
			return false
		}
	}
	return true
}
