// Command gpsbench regenerates every experiment table: the
// figure-level reproductions of the demo paper (F1, F2, F3a, F3c), the
// companion-style quantitative evaluation (E1, E2, E3) and the ablations
// (AB1-AB3). By default it runs the quick configuration used in CI; -full
// switches to the larger graphs. README "Running" and "Benchmarks" list
// the invocations.
//
// Usage:
//
//	gpsbench              # run every experiment, quick configuration
//	gpsbench -exp f1,e2   # run a subset
//	gpsbench -full        # full-size graphs (minutes)
//	gpsbench -list        # list experiment identifiers
//	gpsbench -rpqbench    # RPQ micro-benchmarks -> BENCH_rpq.json
//	gpsbench -rpqgate BENCH_rpq.json    # same-machine cached/sharded ratio gate
//	gpsbench -indexbench  # indexed vs unindexed /evaluate -> BENCH_index.json
//	gpsbench -indexgate BENCH_index.json  # indexed speedup ratio gate
//	gpsbench -benchcmp BENCH_rpq.json   # allocs/op gate vs BENCH_baseline.json
//	gpsbench -learnbench  # learner benchmarks -> BENCH_learn.json
//	gpsbench -learngate BENCH_learn.json  # dense-vs-reference speedup gate
//	gpsbench -loadbench -load-gpsd ./gpsd  # multi-tenant fairness load -> BENCH_load.json
//	gpsbench -loadgate BENCH_load.json     # fairness gate over a load summary
//	gpsbench -chaosbench -chaos-gpsd ./gpsd  # crash-anywhere chaos vs oracle
//	gpsbench -failover -chaos-gpsd ./gpsd    # primary/follower failover chaos
//	gpsbench -smokedrive eval -smoke-base http://127.0.0.1:8080  # typed-client smoke checks
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiment"
)

func main() {
	var (
		expList    = flag.String("exp", "", "comma-separated experiment ids to run (default: all)")
		full       = flag.Bool("full", false, "run the full-size configuration instead of the quick one")
		seed       = flag.Int64("seed", 1, "seed for all pseudo-random choices")
		list       = flag.Bool("list", false, "list the available experiments and exit")
		rpqBench   = flag.Bool("rpqbench", false, "run the RPQ evaluation micro-benchmarks and write a JSON summary")
		rpqOut     = flag.String("rpqbench-out", "BENCH_rpq.json", "output path of the -rpqbench JSON summary")
		storeBench = flag.Bool("storebench", false, "run the storage-engine benchmarks (appends/sec and recovery, text vs binary, 1 vs 16 sessions) and write a JSON summary")
		storeOut   = flag.String("storebench-out", "BENCH_store.json", "output path of the -storebench JSON summary")
		storeIvl   = flag.Duration("storebench-commit-interval", 0, "group-commit batch window for -storebench's binary engine")
		storeGate  = flag.String("storegate", "", "check this -storebench summary and fail if the binary/text 16-session append speedup is below -storegate-min")
		storeMin   = flag.Float64("storegate-min", 3, "minimum binary/text 16-session append speedup for -storegate")
		learnBench = flag.Bool("learnbench", false, "run the learner benchmarks (dense vs reference generalization on the transport graphs, session convergence) and write a JSON summary")
		learnOut   = flag.String("learnbench-out", "BENCH_learn.json", "output path of the -learnbench JSON summary")
		learnGate  = flag.String("learngate", "", "check this -learnbench summary and fail if the dense/reference 60x60 Learn speedup is below -learngate-min")
		learnMin   = flag.Float64("learngate-min", 3, "minimum dense/reference 60x60 Learn speedup for -learngate")
		chaosBench = flag.Bool("chaosbench", false, "run the crash-anywhere chaos harness: torture a real gpsd subprocess with SIGKILLs and in-compaction crashes, then prove equivalence against a text-engine oracle")
		chaosGpsd  = flag.String("chaos-gpsd", "", "path to the gpsd binary to torture (required with -chaosbench)")
		chaosKills = flag.Int("chaos-kills", 30, "number of hard kills the chaos run inflicts before driving sessions to completion")
		chaosSess  = flag.Int("chaos-sessions", 24, "number of concurrent learning sessions the chaos run drives")
		chaosAddr  = flag.String("chaos-addr", "127.0.0.1:18090", "listen address for the tortured gpsd")
		chaosOut   = flag.String("chaosbench-out", "", "optional JSON summary output path for -chaosbench")
		chaosV     = flag.Bool("chaos-v", false, "log per-kill chaos progress")
		chaosTel   = flag.String("chaos-telemetry", "", "optional .jsonl path: append every /metrics scrape the chaos or failover harness takes (one JSON line per scrape, CI post-mortem artifact)")
		foBench    = flag.Bool("failover", false, "run the replication failover harness: a primary/follower gpsd pair, repeated primary SIGKILLs (incl. in-compaction faults), follower promotions with fencing checks, then oracle equivalence")
		foKills    = flag.Int("failover-kills", 10, "number of primary kills (= promotions) the failover run inflicts")
		foAddrA    = flag.String("failover-addr-a", "127.0.0.1:18092", "listen address of the first daemon of the failover pair")
		foAddrB    = flag.String("failover-addr-b", "127.0.0.1:18093", "listen address of the second daemon of the failover pair")
		foOut      = flag.String("failover-out", "", "optional JSON summary output path for -failover")
		loadBench  = flag.Bool("loadbench", false, "run the multi-tenant load harness: several tenants against a keyring-armed gpsd subprocess, one offering ~10x, asserting the fair-share invariants")
		loadGpsd   = flag.String("load-gpsd", "", "path to the gpsd binary to load (required with -loadbench)")
		loadAddr   = flag.String("load-addr", "127.0.0.1:18091", "listen address for the loaded gpsd")
		loadDur    = flag.Duration("load-duration", 8*time.Second, "duration of each -loadbench phase")
		loadOut    = flag.String("loadbench-out", "BENCH_load.json", "output path of the -loadbench JSON summary")
		loadV      = flag.Bool("load-v", false, "log per-tenant load results")
		smokeMode  = flag.String("smokedrive", "", "run one typed-client smoke check (eval, simulate, checkdone, park, snapshot, auth) against a running gpsd — the Go half of scripts/smoke_gpsd.sh")
		smokeBase  = flag.String("smoke-base", "http://127.0.0.1:8080", "base URL of the gpsd under smoke test")
		smokeSess  = flag.String("smoke-session", "", "session id for the checkdone/snapshot smoke modes")
		smokeOut   = flag.String("smoke-out", "", "output path for the snapshot smoke mode")
		smokeKey   = flag.String("smoke-key", "", "API key for the auth smoke mode")
		smokeNoKey = flag.Bool("smoke-expect-unauthorized", false, "auth smoke mode: the key must be rejected (revoked-key checks)")
		loadGate   = flag.String("loadgate", "", "check this -loadbench summary and fail if the polite admission-error rate or p99 ratio breaches the fairness gate")
		loadRate   = flag.Float64("loadgate-max-error-rate", 0.01, "maximum polite-tenant admission-error rate for -loadgate")
		loadRatio  = flag.Float64("loadgate-max-p99-ratio", 2, "maximum contended/baseline p99 ratio for -loadgate")
		benchCmp   = flag.String("benchcmp", "", "compare this -rpqbench summary against -benchcmp-base and fail on an allocs/op regression (ns/op is informational)")
		benchBase  = flag.String("benchcmp-base", "BENCH_baseline.json", "baseline summary for -benchcmp")
		benchTol   = flag.Float64("benchcmp-threshold", 0.25, "allowed regression for -benchcmp (0.25 = 25%)")
		rpqGate    = flag.String("rpqgate", "", "check this -rpqbench summary's same-machine ratios and fail if the cached or sharded speedup is below its floor")
		rpqCMin    = flag.Float64("rpqgate-cached-min", 5, "minimum cached/uncached evaluation speedup for -rpqgate")
		rpqSMin    = flag.Float64("rpqgate-sharded-min", 0.75, "minimum sharded/sequential large-graph speedup for -rpqgate")
		indexBench = flag.Bool("indexbench", false, "measure /evaluate with and without the precomputed reachability index on the large transport graph and write a JSON summary")
		indexOut   = flag.String("indexbench-out", "BENCH_index.json", "output path of the -indexbench JSON summary")
		indexGate  = flag.String("indexgate", "", "check this -indexbench summary and fail if the indexed-vs-unindexed median speedup is below -indexgate-min")
		indexMin   = flag.Float64("indexgate-min", 5, "minimum indexed/unindexed median evaluation speedup for -indexgate")
	)
	flag.Parse()

	if *benchCmp != "" || *storeGate != "" || *learnGate != "" || *loadGate != "" || *rpqGate != "" || *indexGate != "" {
		if *benchCmp != "" {
			if err := runBenchCompare(*benchBase, *benchCmp, *benchTol); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *storeGate != "" {
			if err := runStoreGate(*storeGate, *storeMin); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *learnGate != "" {
			if err := runLearnGate(*learnGate, *learnMin); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *loadGate != "" {
			if err := runLoadGate(*loadGate, *loadRate, *loadRatio); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *rpqGate != "" {
			if err := runRPQGate(*rpqGate, *rpqCMin, *rpqSMin); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		if *indexGate != "" {
			if err := runIndexGate(*indexGate, *indexMin); err != nil {
				fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	if *smokeMode != "" {
		err := runSmokeDrive(smokeOptions{
			base:               *smokeBase,
			mode:               *smokeMode,
			session:            *smokeSess,
			out:                *smokeOut,
			key:                *smokeKey,
			expectUnauthorized: *smokeNoKey,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: smokedrive %s: %v\n", *smokeMode, err)
			os.Exit(1)
		}
		return
	}

	if *loadBench {
		err := runLoadBench(loadOptions{
			gpsdPath: *loadGpsd,
			addr:     *loadAddr,
			duration: *loadDur,
			seed:     *seed,
			out:      *loadOut,
			verbose:  *loadV,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: loadbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *chaosBench {
		err := runChaosBench(chaosOptions{
			gpsdPath:  *chaosGpsd,
			addr:      *chaosAddr,
			kills:     *chaosKills,
			sessions:  *chaosSess,
			seed:      *seed,
			out:       *chaosOut,
			telemetry: *chaosTel,
			verbose:   *chaosV,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: chaosbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *foBench {
		err := runFailoverBench(failoverOptions{
			gpsdPath:  *chaosGpsd,
			addrA:     *foAddrA,
			addrB:     *foAddrB,
			kills:     *foKills,
			sessions:  *chaosSess,
			seed:      *seed,
			out:       *foOut,
			telemetry: *chaosTel,
			verbose:   *chaosV,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: failover: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *learnBench {
		if err := runLearnBench(*learnOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *storeBench {
		if err := runStoreBench(*storeOut, *seed, *storeIvl); err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *indexBench {
		if err := runIndexBench(*indexOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *rpqBench {
		if err := runRPQBench(*rpqOut, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "gpsbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, r := range experiment.Registry() {
			fmt.Printf("%-4s %-40s %s\n", r.ID, r.Paper, r.Description)
		}
		return
	}

	cfg := experiment.Config{Quick: !*full, Seed: *seed}
	runners := experiment.Registry()
	if *expList != "" {
		var selected []experiment.Runner
		for _, id := range strings.Split(*expList, ",") {
			r, ok := experiment.Lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "gpsbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, r)
		}
		runners = selected
	}

	for _, r := range runners {
		start := time.Now()
		table := r.Run(cfg)
		fmt.Printf("=== %s — %s ===\n", strings.ToUpper(r.ID), r.Paper)
		fmt.Println(table.String())
		fmt.Printf("(%s in %.1fs)\n\n", r.ID, time.Since(start).Seconds())
	}
}
