package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// benchFile mirrors BENCHMARK.json at the repository root.
type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// layerHigherIsBetter names the per-layer metrics that improve upward.
func layerHigherIsBetter(name string) bool {
	switch name {
	case "core.streams_delivered_per_op", "core.delivered_ratio", "trace.ops_per_s", "profile.cpu_coverage":
		return true
	}
	return false
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness in
// step: the same workloads, and the same metrics with the same units and
// directions.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "roundbench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"roundbench"}) {
		t.Errorf("command %v, paths %v", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		e := b.EndToEnd[i]
		if e.Name != m[0] || e.Unit != m[1] || e.Better != better(higherIsBetter(m[0])) {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, harness %s/%s/%s", i, e.Name, e.Unit, e.Better, m[0], m[1], better(higherIsBetter(m[0])))
		}
		if !(e.Bound > 0 && e.Bound <= 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	pl := perLayerMetrics()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(b.PerLayer), len(pl))
	}
	for i, m := range pl {
		e := b.PerLayer[i]
		if e.Name != m[0] || e.Unit != m[1] || e.Better != better(layerHigherIsBetter(m[0])) {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, harness %s/%s/%s", i, e.Name, e.Unit, e.Better, m[0], m[1], better(layerHigherIsBetter(m[0])))
		}
	}
}

// TestReferenceRecordsReproduce re-runs the reference prefix of seed 1 of
// every workload and compares it with testdata/reference.json: the record
// depends on the seed alone.
func TestReferenceRecordsReproduce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's set-up and reference prefix")
	}
	pin()
	for _, w := range workloads {
		rec, err := referenceRecord(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := compareReference(rec); got != "match" {
			t.Errorf("%s seed 1: %s", w.name, got)
		}
	}
}
