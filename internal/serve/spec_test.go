package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestNormalizeBounds: a spec asking for more than one job may take is
// refused, and the error names the field; the bounds themselves pass. Only
// normalize is exercised: no such job is ever started.
func TestNormalizeBounds(t *testing.T) {
	for _, c := range []struct {
		budget, lambda int
		field          string // "" = accepted
	}{
		{budget: 100000, lambda: 1024},
		{budget: 1, lambda: 0},
		{budget: -1, field: "budget"},
		{budget: 100001, field: "budget"},
		{budget: int(^uint(0) >> 1), field: "budget"},
		{lambda: -1, field: "lambda"},
		{lambda: 1025, field: "lambda"},
	} {
		spec := JobSpec{Bench: "telecom_gsm", Budget: c.budget, Lambda: c.lambda}
		err := spec.normalize()
		switch {
		case c.field == "" && err != nil:
			t.Errorf("budget %d, lambda %d: refused: %v", c.budget, c.lambda, err)
		case c.field != "" && (err == nil || !strings.Contains(err.Error(), c.field)):
			t.Errorf("budget %d, lambda %d: err = %v, want one naming %s", c.budget, c.lambda, err, c.field)
		}
	}
}

// FuzzSubmitSpec posts arbitrary bodies to POST /v1/jobs on a drained
// server, so nothing runs. Every answer is a 400, 413 or 503. A 503 body
// passed normalize: normalizing it again changes nothing, and it lies within
// the bounds. Nothing is written under Dir.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		`{"bench":"telecom_gsm"}`,
		`{"bench":"telecom_gsm","platform":"x86","budget":100000,"seed":-3,"lambda":1024,"workers":2,"feature":"autophase","adaptive":false}`,
		`{"bench":"telecom_gsm","lambda":-1}`,
		`{"bench":"telecom_gsm","budget":100001}`,
		`{"bench":"telecom_gsm","feature":"bogus"}`,
		`{"bench":"nope"}`,
		`{}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	dir := f.TempDir()
	s, err := New(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Drain(context.Background()); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusServiceUnavailable:
			// Decoded the way handleSubmit decodes it (trailing bytes ignored).
			var spec JobSpec
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
				t.Fatalf("503 for a body that does not decode: %v", err)
			}
			if err := spec.normalize(); err != nil {
				t.Fatalf("503 for a spec normalize refuses: %v", err)
			}
			again := spec
			if err := again.normalize(); err != nil || !reflect.DeepEqual(again, spec) {
				t.Fatalf("normalize is not idempotent: %+v, then %+v (%v)", spec, again, err)
			}
			if spec.Budget < 1 || spec.Budget > maxBudget || spec.Lambda < 0 || spec.Lambda > maxLambda {
				t.Fatalf("normalized spec out of bounds: %+v", spec)
			}
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("drained server wrote under Dir: %v (%v)", entries, err)
		}
	})
}
