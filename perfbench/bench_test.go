package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"aces/internal/sdo"
	"aces/internal/spc"
)

// testParams is a light live load, so the checks run quickly on any host.
var testParams = liveParams{payload: 64, pool: 32, steadyRate: 2000, overloadRate: 20000}

func testRound(t *testing.T, wrap func(spc.FuncProcessor) spc.FuncProcessor) *result {
	t.Helper()
	rr, err := liveRound(roundConfig{
		p: testParams, pool: newPayloadPool(testParams.payload, testParams.pool, 7), seed: 7,
		steady: 300 * time.Millisecond, overload: 300 * time.Millisecond, wrapRoute: wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	res.checkLive([]roundResult{rr})
	return res
}

// faultAt wraps the route processor so that steady SDO 7 goes through
// fault instead.
func faultAt(fault func(in sdo.SDO, next spc.FuncProcessor, emit func(sdo.SDO)) error) func(spc.FuncProcessor) spc.FuncProcessor {
	return func(next spc.FuncProcessor) spc.FuncProcessor {
		return func(in sdo.SDO, emit func(sdo.SDO)) error {
			if in.Seq != 7 {
				return next(in, emit)
			}
			return fault(in, next, emit)
		}
	}
}

func TestCleanRoundIsCorrect(t *testing.T) {
	res := testRound(t, nil)
	if !res.correct || res.attempted == 0 {
		t.Fatalf("clean round: correct=%v attempted=%d notes %v", res.correct, res.attempted, res.notes)
	}
}

func TestCheckerCatchesDuplicate(t *testing.T) {
	res := testRound(t, faultAt(func(in sdo.SDO, next spc.FuncProcessor, emit func(sdo.SDO)) error {
		if err := next(in, emit); err != nil {
			return err
		}
		return next(in, emit)
	}))
	if res.correct || res.failed == 0 {
		t.Fatalf("duplicating processor passed: correct=%v failed=%d", res.correct, res.failed)
	}
}

func TestCheckerCatchesCorruptPayload(t *testing.T) {
	res := testRound(t, faultAt(func(in sdo.SDO, next spc.FuncProcessor, emit func(sdo.SDO)) error {
		b := append([]byte(nil), in.Payload.([]byte)...)
		b[len(b)/2] ^= 0xff
		in.Payload = b
		return next(in, emit)
	}))
	if res.correct || res.failed == 0 {
		t.Fatalf("corrupting processor passed: correct=%v failed=%d", res.correct, res.failed)
	}
}

func TestCheckAllocation(t *testing.T) {
	topo, err := liveTopology()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cpu []float64
		ok  bool
	}{
		{liveCPU, true},
		{[]float64{1, 1, 0.6, 0.5}, false},
		{[]float64{math.NaN(), 1, 0.5, 0.5}, false},
		{[]float64{1, 1, 0.5}, false},
	} {
		if err := checkAllocation(topo, tc.cpu); (err == nil) != tc.ok {
			t.Errorf("checkAllocation(%v) = %v, want ok=%v", tc.cpu, err, tc.ok)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program does not run", w.Name)
		}
	}
	for _, set := range []struct {
		name  string
		json  []struct{ Name, Unit string }
		specs []spec
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(set.json) != len(set.specs) {
			t.Fatalf("%s lists %d metrics, program reports %d", set.name, len(set.json), len(set.specs))
		}
		for i, m := range set.json {
			if m.Name != set.specs[i].name || m.Unit != set.specs[i].unit {
				t.Errorf("%s[%d] = %s (%s), program has %s (%s)", set.name, i, m.Name, m.Unit, set.specs[i].name, set.specs[i].unit)
			}
		}
	}
}
