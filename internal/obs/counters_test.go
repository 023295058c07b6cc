package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// A batch delta crosses the fleet wire as JSON: Sub on the runner, Add on the
// coordinator must reproduce the runner's after-state exactly, by name, with
// rows either side lacks carried through.
func TestCounterSetAddSubRoundTripJSON(t *testing.T) {
	before := CounterSet{{Name: "hits", Value: 3}, {Name: "bytes", Value: 100, Env: true}, {Name: "pool", Value: 9, Env: true, Global: true}}
	after := CounterSet{{Name: "hits", Value: 7}, {Name: "bytes", Value: 40, Env: true}, {Name: "new", Value: 2}, {Name: "pool", Value: 11, Env: true, Global: true}}

	delta := after.Owned().Sub(before.Owned())
	wire, err := json.Marshal(delta)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(wire), "pool") {
		t.Fatalf("Global row on the wire: %s", wire)
	}
	var got CounterSet
	if err := json.Unmarshal(wire, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, delta) {
		t.Fatalf("delta changed on the wire: %+v != %+v", got, delta)
	}
	if got.Get("bytes") != -60 {
		t.Fatalf("net byte change = %d, want -60", got.Get("bytes"))
	}

	// The coordinator's set has its own rows, in its own order.
	coord := CounterSet{{Name: "bytes", Value: 100, Env: true}, {Name: "hits", Value: 3, Series: "hits_total"}, {Name: "pool", Value: 5, Env: true, Global: true}}
	sum := coord.Add(got)
	for _, c := range after.Owned() {
		if sum.Get(c.Name) != c.Value {
			t.Errorf("%s = %d after Add, want %d", c.Name, sum.Get(c.Name), c.Value)
		}
	}
	if sum.Get("pool") != 5 || sum[1].Series != "hits_total" {
		t.Fatalf("Add disturbed the receiver's own rows: %+v", sum)
	}
	if coord.Get("hits") != 3 || len(coord) != 3 {
		t.Fatalf("Add mutated its receiver: %+v", coord)
	}
	if back := sum.Sub(got).Owned(); !reflect.DeepEqual(back[:2], coord.Owned()) || back.Get("new") != 0 {
		t.Fatalf("Sub does not undo Add: %+v", back)
	}
}

// Publish is the only road from a counter row to /metrics: "_total" series of
// owned rows accumulate deltas across owners, everything else is a gauge.
func TestPublishCountersAndGauges(t *testing.T) {
	m := NewMetrics()
	first := CounterSet{
		{Name: "hits", Value: 5, Series: "x_hits_total"},
		{Name: "bytes", Value: 70, Series: "x_bytes"},
		{Name: "saved", Value: 4, Env: true, Series: "x_saved_total"},
		{Name: "pool", Value: 9, Env: true, Global: true, Series: "x_pool_total"},
		{Name: "unpublished", Value: 1},
	}
	m.Publish(first, nil)
	second := first.Add(CounterSet{{Name: "hits", Value: 2}, {Name: "bytes", Value: -30}})
	m.Publish(second, first)
	// A second owner sharing the registry.
	m.Publish(CounterSet{{Name: "hits", Value: 10, Series: "x_hits_total"}, {Name: "saved", Value: 1, Env: true, Series: "x_saved_total"}}, nil)

	if got := m.Counter("x_hits_total").Value(); got != 17 {
		t.Fatalf("x_hits_total = %d, want 7 + 10", got)
	}
	if got := m.Gauge("x_bytes").Value(); got != 40 {
		t.Fatalf("x_bytes = %v, want 40", got)
	}
	if got := m.Counter("x_saved_total").Value(); got != 5 {
		t.Fatalf("x_saved_total = %d, want an owned Env row to accumulate 4 + 1", got)
	}
	if got := m.Gauge("x_pool_total").Value(); got != 9 {
		t.Fatalf("x_pool_total = %v, want the Global row as a gauge", got)
	}
	var buf strings.Builder
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "unpublished") {
		t.Fatal("row without a series was published")
	}
}
