// Command perfbench is the repository's benchmark of the served system.
// It builds cmd/oblidb-server from the tree it sits in, starts that
// binary, and drives one named workload over loopback with the public
// client package.
//
// With --trace 0 it measures the end-to-end metrics (throughput in a
// closed-loop phase, latency in an open-loop phase, set-up time, server
// RSS). With --trace 1 it runs the same served measurement for
// its counts and process readings, then a traced in-process pass and
// serial replays of the same statement stream that time calls into
// each layer's public functions, and prints the per-layer metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload oltp --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer makes the
// command exit non-zero. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: analytics, oltp or ingest")
	seed := flag.Uint64("seed", 1, "workload seed: data, keys and arguments derive from it")
	seconds := flag.Int("seconds", 30, "measured seconds (warm-up, closed-loop and open-loop phases)")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	spec, ok := specs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	env, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(env.tmp)

	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	calib := calibrate()
	fmt.Printf("calib.seal_4k_ns=%.1f\n", calib)

	res, err := measure(env, spec, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *traced == 1 {
		lm, err := traceRun(env, spec, *seed, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		lm["calib.seal_4k_ns"] = metric{calib, "ns"}
		lm["host.nproc"] = metric{float64(runtime.NumCPU()), "count"}
		lm["host.gomaxprocs"] = metric{float64(runtime.GOMAXPROCS(0)), "count"}
		res.out.Metrics = lm
	}
	printMetrics(res.out.Metrics)
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.out.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", res.wrongDetail)
		return 1
	}
	return 0
}

// printMetrics writes one "name value unit" line per metric, sorted.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// env locates the tree under test and the benchmark's scratch space.
type env struct {
	root  string // repository root, holding go.mod and cmd/oblidb-server
	build string // build output directory
	tmp   string // per-run scratch directory under build
}

// newEnv finds the repository root (the benchmark runs from its own
// directory, one level below) and creates a per-run scratch directory
// under the build directory: $CARGO_TARGET_DIR when set, relative to
// the root, else .bench_build.
func newEnv() (*env, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return nil, err
	}
	for _, p := range []string{"go.mod", filepath.Join("cmd", "oblidb-server", "main.go")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("not run from the repository's perfbench directory: %w", err)
		}
	}
	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	if !filepath.IsAbs(build) {
		build = filepath.Join(root, build)
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, build: build, tmp: tmp}, nil
}
