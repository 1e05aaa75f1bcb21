package main

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T) config {
	return config{
		seed: 11, seconds: 1, untraced: true, traced: true,
		scale: smokeScale, smoke: true, traceOut: filepath.Join(t.TempDir(), "spans.jsonl"),
	}
}

// TestSmokeEmitsEveryName runs all six workloads end to end at -smoke
// size and checks that the names, units and workloads the run emits are
// exactly those BENCHMARK.json lists.
func TestSmokeEmitsEveryName(t *testing.T) {
	file, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, m := range file.EndToEnd {
		want[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range file.PerLayer {
		if _, dup := want[m.Name]; dup {
			t.Errorf("%s is listed twice", m.Name)
		}
		want[m.Name] = m.Unit
	}
	if len(want) != len(endToEnd)+len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d metrics, the benchmark defines %d", len(want), len(endToEnd)+len(perLayer))
	}

	cfg := smokeConfig(t)
	all := specs(2)
	var names []string
	for _, sp := range all {
		names = append(names, sp.name)
	}
	var listed []string
	for _, w := range file.Workloads {
		listed = append(listed, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}

	for _, sp := range all {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		got := exported(res, cfg)
		var missing, extra []string
		for name, unit := range want {
			v, ok := got[name]
			if !ok {
				missing = append(missing, name)
			} else if v.Unit != unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", sp.name, name, v.Unit, unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: missing %v, unlisted %v", sp.name, missing, extra)
		}
		for name := range res.metrics {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: sets %q, which no list names", sp.name, name)
			}
		}
		for _, m := range endToEnd {
			if got[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, m.name, got[m.name].Value)
			}
		}
		if res.attempted == 0 {
			t.Errorf("%s: attempted nothing", sp.name)
		}
		// What must read zero where it does not apply, and not where it does.
		ms := res.metrics
		durable := sp.durable
		for _, name := range []string{"wal.sync_us", "recovery_s", "disk_bytes_per_op", "wal.fsyncs_per_req"} {
			if (ms[name] > 0) != durable {
				t.Errorf("%s: %s = %v", sp.name, name, ms[name])
			}
		}
		// An append takes a microsecond or two: at -smoke size the replays
		// may not resolve it, and then it reads 0.
		if !durable && ms["wal.append_us"] != 0 {
			t.Errorf("%s: wal.append_us = %v without a WAL", sp.name, ms["wal.append_us"])
		}
		if wire := sp.family == famWire; (ms["client.alloc_bytes_per_op"] > 0) != wire {
			t.Errorf("%s: client.alloc_bytes_per_op = %v", sp.name, ms["client.alloc_bytes_per_op"])
		}
		if wire := sp.family == famWire; (ms["dispatcher.mean_batch"] >= 1) != wire {
			t.Errorf("%s: dispatcher.mean_batch = %v", sp.name, ms["dispatcher.mean_batch"])
		}
		if ms["trace.top_span_us"] <= 0 || ms["trace.spans"] <= 0 {
			t.Errorf("%s: the traced pass recorded nothing", sp.name)
		}
	}
}

// TestInjectedFaultFails corrupts one observed result in each family's
// gate; the run must stop there with an error and no result.
func TestInjectedFaultFails(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.injectFault = true
	for _, sp := range specs(2) {
		if sp.name != "graph-single" && sp.name != "social-hot" && sp.name != "wire-durable" {
			continue
		}
		res, err := runWorkload(sp, cfg)
		if err == nil || res != nil {
			t.Errorf("%s: an injected wrong result went unnoticed", sp.name)
		} else if !strings.Contains(err.Error(), "gate") {
			t.Errorf("%s: failed outside the gate: %v", sp.name, err)
		}
	}
}
