// Command crstune runs the autotuner of §6.1: it enumerates legal
// representations of the directed-graph relation (structure × placement ×
// striping factor × containers), measures each on a training workload,
// and prints the ranking.
//
// With -live FILE it instead runs the ONLINE advisor's decision rule on a
// harvested counter dump — either the registry document a crsd /v1/stats
// response carries under "registry", or a bare core.Counters JSON ("-"
// reads stdin) — and prints, for every relation, the migration the
// advisor would trigger. The rule is literally the same code cmd/crsd
// -adapt runs (autotune.RecommendKinds), so the offline verdict and the
// online behavior cannot drift apart.
//
// Usage:
//
//	crstune [-mix 35-35-20-10] [-threads 4] [-ops 20000] [-keyspace 512]
//	        [-top 15] [-topstatic 64] [-family stick|split|diamond]
//	crstune -live stats.json [-min-ops 1000] [-margin 0.1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	crs "repro"
	"repro/internal/autotune"
	"repro/internal/workload"
)

func main() {
	mixFlag := flag.String("mix", "35-35-20-10", "training mix x-y-z-w")
	threads := flag.Int("threads", 4, "training threads")
	ops := flag.Int("ops", 20_000, "training operations per thread")
	keyspace := flag.Int64("keyspace", 512, "node id space")
	top := flag.Int("top", 15, "print the top N results")
	topStatic := flag.Int("topstatic", 0, "pre-filter to the N statically cheapest candidates (0 = measure all)")
	family := flag.String("family", "", "restrict to one family: stick, split or diamond")
	seed := flag.Uint64("seed", 1, "workload seed")
	live := flag.String("live", "", "harvested counters JSON (a /v1/stats document or bare core.Counters; - reads stdin): print the online advisor's verdict instead of autotuning")
	minOps := flag.Uint64("min-ops", autotune.DefaultConfig().MinOps, "with -live, observed operations required before recommending")
	margin := flag.Float64("margin", autotune.DefaultConfig().Margin, "with -live, required relative cost improvement")
	flag.Parse()

	if *live != "" {
		if err := runLive(*live, *minOps, *margin); err != nil {
			fatal(err)
		}
		return
	}

	mix, err := workload.ParseMix(*mixFlag)
	if err != nil {
		fatal(err)
	}
	cands := crs.EnumerateGraphCandidates()
	if *family != "" {
		var filtered []crs.TuneCandidate
		for _, c := range cands {
			if c.Family == *family {
				filtered = append(filtered, c)
			}
		}
		cands = filtered
	}
	fmt.Printf("autotuning %d candidates (mix %s, %d threads × %d ops, keyspace %d)\n",
		len(cands), mix, *threads, *ops, *keyspace)
	if *topStatic > 0 {
		fmt.Printf("static pre-filter: measuring only the %d cheapest by plan cost\n", *topStatic)
	}

	cfg := crs.BenchConfig{Threads: *threads, OpsPerThread: *ops, KeySpace: *keyspace, Seed: *seed, Mix: mix}
	scored, err := crs.Tune(cands, cfg, crs.TuneOptions{TopStatic: *topStatic})
	if err != nil {
		fatal(err)
	}
	n := *top
	if n > len(scored) {
		n = len(scored)
	}
	fmt.Printf("\n%-4s %-64s %14s %10s\n", "rank", "candidate", "ops/sec", "static")
	for i := 0; i < n; i++ {
		s := scored[i]
		fmt.Printf("%-4d %-64s %14.0f %10.1f\n", i+1, s.Name, s.Result.Throughput, s.Static)
	}
	fmt.Printf("\nbest: %s (%s)\n", scored[0].Name, scored[0].Description)
}

// runLive reads a harvested counter dump and prints, per relation, the
// migration the online advisor would trigger under the given thresholds.
func runLive(path string, minOps uint64, margin float64) error {
	var raw []byte
	var err error
	if path == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return err
	}
	counters, err := decodeCounters(raw)
	if err != nil {
		return err
	}
	cfg := autotune.DefaultConfig()
	cfg.MinOps = minOps
	cfg.Margin = margin

	if len(counters.Relations) == 0 {
		return fmt.Errorf("no relation counters in %s", path)
	}
	fmt.Printf("online advisor verdict (min ops %d, margin %.0f%%):\n\n", cfg.MinOps, cfg.Margin*100)
	for _, rc := range counters.Relations {
		total := rc.Reads + rc.Writes
		frac := 0.0
		if total > 0 {
			frac = float64(rc.Reads) / float64(total)
		}
		fmt.Printf("%-10s %s  (%d ops, read fraction %.2f, optimistic=%v)\n",
			rc.Name, strings.Join(rc.Containers, "/"), total, frac, rc.OptimisticCapable)
		if rec, ok := autotune.RecommendKinds(rc, cfg); ok {
			fmt.Printf("  -> MIGRATE to %s\n     %s\n", strings.Join(rec.To, "/"), rec.Reason)
		} else {
			fmt.Printf("  -> keep\n")
		}
	}
	if n := len(counters.Migrations); n > 0 {
		fmt.Printf("\n%d migrations already completed:\n", n)
		for _, ev := range counters.Migrations {
			fmt.Printf("  %s: %s -> %s (backfilled %d, catch-up %d)\n",
				ev.Relation, ev.From, ev.To, ev.Backfilled, ev.CatchupOps)
		}
	}
	return nil
}

// decodeCounters accepts either a full /v1/stats document (counters under
// "registry") or a bare core.Counters dump.
func decodeCounters(raw []byte) (*crs.Counters, error) {
	var stats struct {
		Registry *crs.Counters `json:"registry"`
	}
	if err := json.Unmarshal(raw, &stats); err == nil && stats.Registry != nil && len(stats.Registry.Relations) > 0 {
		return stats.Registry, nil
	}
	var bare crs.Counters
	if err := json.Unmarshal(raw, &bare); err != nil {
		return nil, fmt.Errorf("not a stats or counters document: %w", err)
	}
	return &bare, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crstune:", err)
	os.Exit(1)
}
