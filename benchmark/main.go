// Command benchmark is the repository's one benchmark: six named
// workloads, six bounded end-to-end metrics, and a per-layer table whose
// timing rows come from replaying the same requests at successive public
// entry points ("peeling"). It drives the program only through public
// functions and changes nothing outside its own directory. README.md
// says why each workload exists and how to read the numbers.
//
//	bash benchmark/run.sh --workload wire-steady --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                 # all six, both halves, human-readable
//	bash benchmark/run.sh -repeat 2       # agreement of two full sets against the bounds
//
// The last line of standard output is one JSON object:
// {"correct":true,"attempted":N,"failed":N,"metrics":{name:{"value":V,"unit":U}}}.
// Any failed correctness check exits non-zero and prints no such line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload by name (default: all six)")
		seed     = flag.Uint64("seed", 1, "seed of every generated input")
		seconds  = flag.Int("seconds", 10, "length of the measured window, whole seconds")
		trace    = flag.Int("trace", 2, "0: end-to-end metrics (untraced run); 1: per-layer metrics (adds the traced pass); 2: both")
		smoke    = flag.Bool("smoke", false, "shrink every run to one second and every other part to a token size")
		repeat   = flag.Int("repeat", 0, "run N full untraced sets and compare their spread with the bounds in BENCHMARK.json")
		traceOut = flag.String("trace-out", "", "file the traced pass writes its spans to, JSON lines (default: a file in the temporary directory)")
		inject   = flag.Bool("inject-fault", false, "corrupt one observed result in the correctness gate; the command must then fail")
		loadgen  = flag.String("loadgen", "", "internal: run as the wire workloads' load generator against the server at this base URL (needs -workload)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 2 || *repeat < 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds N] [-trace 0|1|2] [-smoke] [-repeat N] [-trace-out FILE]")
		os.Exit(2)
	}

	// P = min(nproc, 4): enough for real parallelism, small enough that
	// load generator and program share the reference box's two cores the
	// same way on every run.
	nproc := runtime.NumCPU()
	procs := min(nproc, 4)
	runtime.GOMAXPROCS(procs)

	cfg := config{
		seed: *seed, seconds: *seconds,
		untraced: *trace != 1, traced: *trace != 0,
		scale: fullScale, injectFault: *inject, traceOut: *traceOut,
	}
	if *smoke {
		cfg.seconds, cfg.scale, cfg.smoke = 1, smokeScale, true
	}
	all := specs(procs)
	selected := all
	if *workload != "" {
		selected = nil
		for _, sp := range all {
			if sp.name == *workload {
				selected = []spec{sp}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
	}
	if *loadgen != "" {
		if len(selected) != 1 || selected[0].family != famWire {
			fmt.Fprintln(os.Stderr, "benchmark: -loadgen needs -workload with a wire workload")
			os.Exit(2)
		}
		if err := runLoadgen(selected[0], cfg, *loadgen, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: load generator:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchmark: nproc=%d P=%d %s seed=%d seconds=%d trace=%d\n",
		nproc, procs, runtime.Version(), cfg.seed, cfg.seconds, *trace)

	var err error
	if *repeat > 0 {
		err = runRepeat(selected, cfg, *repeat, *smoke)
	} else {
		err = runOnce(selected, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", err)
		os.Exit(1)
	}
}

// line is the machine-readable result. A single-workload run prints the
// contract's four keys; a suite run keys the metrics "workload/metric"
// and ends with "claim": null — this benchmark measures, it claims
// nothing.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type suiteLine struct {
	line
	Claim *string `json:"claim"`
}

// exported returns the metrics a run of this configuration reports.
func exported(res *result, cfg config) map[string]metricValue {
	out := map[string]metricValue{}
	if cfg.untraced {
		for k, v := range res.metrics.export(endToEnd) {
			out[k] = v
		}
	}
	if cfg.traced {
		for k, v := range res.metrics.export(perLayer) {
			out[k] = v
		}
	}
	return out
}

// report prints one workload's metrics by name, with units.
func report(res *result, cfg config) {
	fmt.Printf("\n== %s: attempted %d, failed %d, outputs correct\n", res.workload, res.attempted, res.failed)
	ms := exported(res, cfg)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := ms[d.name]; ok {
				fmt.Printf("  %-32s %16.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func runOnce(selected []spec, cfg config) error {
	suite := suiteLine{line: line{Correct: true, Metrics: map[string]metricValue{}}}
	var single line
	for _, sp := range selected {
		res, err := runWorkload(sp, cfg)
		if err != nil {
			return err
		}
		report(res, cfg)
		single = line{Correct: true, Attempted: res.attempted, Failed: res.failed, Metrics: exported(res, cfg)}
		suite.Attempted += res.attempted
		suite.Failed += res.failed
		for k, v := range single.Metrics {
			suite.Metrics[sp.name+"/"+k] = v
		}
	}
	fmt.Println()
	if len(selected) == 1 {
		return printJSON(single)
	}
	return printJSON(suite)
}

// benchmarkFile is the part of BENCHMARK.json the agreement tool reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or its
// parent (the benchmark runs from the repository root or from its own
// directory).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var f benchmarkFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	return nil, firstErr
}

// quartiles returns the first, second and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive
// method), which is what the pipeline applies to its own runs.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the run-to-run spread of one metric on one workload as a
// share of its median: the interquartile range when there are enough
// sets to have one, the full range otherwise.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	if len(vals) < 4 {
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return ratio(s[len(s)-1]-s[0], median(s))
	}
	q1, q2, q3 := quartiles(vals)
	return ratio(q3-q1, q2)
}

// runRepeat is the agreement tool: n full untraced sets back to back,
// same seed, then per (end-to-end metric, workload) every set's value,
// the spread and the committed bound. A spread beyond its bound fails
// the command. setup_s is shown but not held to its bound: the pipeline
// does not hold it either, only its drift between two medians. Every run
// is a fresh process of this same program, as the pipeline's are: runs
// that share a process share its heap and its collector's pacing, and
// differ from each other in ways separate runs do not.
func runRepeat(selected []spec, cfg config, n int, smoke bool) error {
	file, err := loadBenchmarkFile()
	if err != nil {
		return fmt.Errorf("the agreement tool needs the bounds: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{} // "workload/metric" → one value per set
	for set := 0; set < n; set++ {
		for _, sp := range selected {
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0"}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, sp.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res line
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", set+1, sp.name, err)
			}
			for _, d := range endToEnd {
				values[sp.name+"/"+d.name] = append(values[sp.name+"/"+d.name], res.Metrics[d.name].Value)
			}
			fmt.Printf("set %d: %s done\n", set+1, sp.name)
		}
	}
	fmt.Printf("\n%-14s %-13s %8s %8s  values\n", "workload", "metric", "spread", "bound")
	var over []string
	for _, sp := range selected {
		for _, m := range file.EndToEnd {
			vals, ok := values[sp.name+"/"+m.Name]
			if !ok {
				return fmt.Errorf("BENCHMARK.json names end-to-end metric %q, which the benchmark does not emit", m.Name)
			}
			sprd := spread(vals)
			mark := ""
			if sprd > m.Bound && m.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, sp.name+"/"+m.Name)
			}
			strs := make([]string, len(vals))
			for i, v := range vals {
				strs[i] = fmt.Sprintf("%.4f", v)
			}
			fmt.Printf("%-14s %-13s %7.2f%% %7.2f%%  %s%s\n", sp.name, m.Name, 100*sprd, 100*m.Bound, strings.Join(strs, " "), mark)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound on %s", strings.Join(over, ", "))
	}
	fmt.Println(`{"claim": null}`)
	return nil
}
