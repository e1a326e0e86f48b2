package main

import (
	"encoding/json"
	"os"
	"testing"
)

// pinnedSample rebuilds a sample whose outputs equal the pins.
func pinnedSample(t *testing.T, name string) sample {
	t.Helper()
	pin, ok := pins[name]
	if !ok {
		t.Fatalf("no pins for %s", name)
	}
	s := sample{Cells: map[string]string{}, Artifacts: map[string]artifact{}}
	for k, v := range pin.Cells {
		s.Cells[k] = v
	}
	for b, d := range pin.Artifacts {
		s.Artifacts[b] = artifact{Digest: d}
	}
	return s
}

func TestCorruptedOutputsAreCaught(t *testing.T) {
	w, _ := lookupWorkload("arch-gcc")
	s := pinnedSample(t, w.name)
	ok := judge(w, []measured{{Sample: s}})
	if !ok.Correct || ok.Failed != 0 || ok.Attempted != len(s.Cells)+len(s.Artifacts) {
		t.Fatalf("pinned outputs judged %+v", ok)
	}

	s.Artifacts["gcc"] = artifact{Digest: digestString("corrupted artifact bytes")}
	if r := judge(w, []measured{{Sample: s}}); r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted artifact judged %+v", r)
	}

	s = pinnedSample(t, w.name)
	for k := range s.Cells {
		s.Cells[k] = digestString("corrupted stats")
		break
	}
	if r := judge(w, []measured{{Sample: s}}); r.Correct || r.Failed != 1 {
		t.Fatalf("corrupted cell judged %+v", r)
	}
}

// vpr-route's PROFILE assembly aborts at this commit; the pinned digest
// is that error, so the run stays correct and the operation still fails.
func TestKnownDefectCountsAsFailed(t *testing.T) {
	w, _ := lookupWorkload("profile-all")
	s := pinnedSample(t, w.name)
	a := s.Artifacts["vpr-route"]
	a.Err = "characterize: BBEF: stats: chi2 empty distribution"
	s.Artifacts["vpr-route"] = a
	if r := judge(w, []measured{{Sample: s}}); !r.Correct || r.Failed != 1 {
		t.Fatalf("known defect judged %+v", r)
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{spec.EndToEnd, endToEndSpec}, {spec.PerLayer, perLayerSpec}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
		}
		for i, m := range c.json {
			if m.Name != c.code[i].name || m.Unit != c.code[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
