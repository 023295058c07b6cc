package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"repro/internal/core"
)

// FuzzRunnerBatch posts arbitrary bodies to a fresh runner: every answer is
// a 200, 400 or 413, and a 200 echoes the batch ID and holds one outcome per
// spec, each Ok or carrying its error text — the result the coordinator
// accepts. Inputs naming more than 200 passes are skipped so one input
// cannot compile for minutes.
func FuzzRunnerBatch(f *testing.F) {
	golden, err := os.ReadFile("testdata/batch_request.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	// The bad-name bodies of TestRunnerRejectsUnknownNames.
	for _, cfg := range []JobConfig{
		{Bench: "telecom_gsm", Platform: "ARM", Seed: 1},
		{Bench: "telecom_gsm", Platform: "riscv", Seed: 1},
		{Bench: "telecom_gsm", Platform: "arm", Seed: 1, Feature: "bogus"},
	} {
		body, _ := json.Marshal(BatchRequest{ID: "b1", Config: cfg, Specs: []core.CompileSpec{{Module: "long_term"}}})
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decoded the way the runner decodes it (trailing bytes ignored).
		var req BatchRequest
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil
		passes := 0
		for _, sp := range req.Specs {
			passes += len(sp.Seq)
		}
		if passes > 200 {
			t.Skip("more than 200 pass names")
		}
		rec := httptest.NewRecorder()
		(&RunnerServer{Workers: 1}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return
		case http.StatusOK:
		default:
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
		}
		if !decoded {
			t.Fatalf("200 for a body that does not decode")
		}
		var res BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("result does not decode: %v", err)
		}
		if res.ID != req.ID || len(res.Items) != len(req.Specs) {
			t.Fatalf("result ID %q with %d items for request ID %q with %d specs", res.ID, len(res.Items), req.ID, len(req.Specs))
		}
		for i, it := range res.Items {
			if !it.Ok && it.Err == "" {
				t.Fatalf("item %d (%+v) neither ok nor failed", i, req.Specs[i])
			}
		}
	})
}
