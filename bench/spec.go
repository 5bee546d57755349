package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricSpec is one metric declared in BENCHMARK.json. Bound is the share of
// the baseline median an end-to-end metric may worsen by; per-layer metrics
// carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single place metric names, units,
// directions and bounds are declared. The program looks units up here when
// it emits a value, so a metric it computes but the file does not declare is
// an error, not a silent extra.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("bench: %s declares no workloads or metrics", path)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	var out []string
	for _, w := range s.Workloads {
		out = append(out, w.Name)
	}
	return out
}

// metricValue is one emitted metric, in the shape the driver reads.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one declared group (end-to-end or
// per-layer) for one run.
type metricSet struct {
	declared []metricSpec
	values   map[string]metricValue
	unknown  []string
}

func newMetricSet(declared []metricSpec) *metricSet {
	return &metricSet{declared: declared, values: make(map[string]metricValue)}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.declared {
		if d.Name == name {
			m.values[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	m.unknown = append(m.unknown, name)
}

// finish checks the set against the declaration. With fillZero a declared
// metric the workload has no value for (a layer it does not run) is emitted
// as 0, because every run must print every declared metric.
func (m *metricSet) finish(fillZero bool) (map[string]metricValue, error) {
	if len(m.unknown) > 0 {
		return nil, fmt.Errorf("bench: metrics %v are not declared in BENCHMARK.json", m.unknown)
	}
	for _, d := range m.declared {
		v, ok := m.values[d.Name]
		switch {
		case !ok && fillZero:
			m.values[d.Name] = metricValue{Unit: d.Unit}
		case !ok:
			return nil, fmt.Errorf("bench: metric %s was not measured", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			return nil, fmt.Errorf("bench: metric %s is %v", d.Name, v.Value)
		}
	}
	return m.values, nil
}
