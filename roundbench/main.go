// Command roundbench is the repository's round-level benchmark. It drives
// the simulator through its public calls with three workloads whose
// operations are downlink rounds, and prints end-to-end metrics (default)
// or per-layer metrics (-trace 1) as one JSON object on its last line.
//
//	bash roundbench/run.sh --workload joint-10ap --seed 1 --seconds 30 --trace 0
//	bash roundbench/run.sh steady [-sets 2]
//	bash roundbench/run.sh layers
//	bash roundbench/run.sh reference
//
// run.sh builds this module into .bench_build/ and runs it from the
// repository root. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"megamimo/internal/air"
	"megamimo/internal/experiment"
)

var stderr io.Writer = os.Stderr

// A run performs the whole set-up at least setupReps times and until the
// set-ups have taken setupMin; setup_s is their median and the last one is
// timed. The storm's 0.1 s set-up is repeated about fifteen times, so its
// median is as steady as the 10-AP workloads' five.
const (
	setupReps = 5
	setupMin  = 1500 * time.Millisecond
)

// minOps is the fewest operations a run times, so that op_p90_ms has at
// least ten operations beyond it.
const minOps = 100

// outDir holds the spans and CPU profile a traced run writes at its end.
const outDir = ".bench_build/trace"

func main() {
	if len(os.Args) > 1 {
		var err error
		switch os.Args[1] {
		case "steady":
			err = steadyCmd(os.Args[2:])
		case "layers":
			err = layersCmd(os.Args[2:])
		case "reference":
			err = referenceCmd(os.Args[2:])
		default:
			err = runCmd(os.Args[1:])
		}
		if err != nil {
			fmt.Fprintln(stderr, "roundbench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintln(stderr, "roundbench: no workload; run with --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	os.Exit(2)
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "timed-phase length in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	res, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pin runs the simulation on one goroutine: the experiment engine and the
// air medium's shard pool each get one worker, and GOMAXPROCS is 1 so the
// garbage collector shares that processor instead of racing on a second
// one whose availability depends on whatever else the machine runs (on a
// shared 2-core box that halved refresh-10ap's op_p90_ms spread).
func pin() {
	runtime.GOMAXPROCS(1)
	experiment.SetWorkers(1)
	air.SetWorkers(1)
}

// header is the run header: toolchain, machine and pinning, and the seed.
func header(w workload, seed int64, seconds time.Duration, traced bool) string {
	return fmt.Sprintf("# roundbench go=%s nproc=%d gomaxprocs=%d experiment_workers=%d air_workers=%d workload=%s seed=%d seconds=%g trace=%v",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), experiment.Workers(), air.Workers(),
		w.name, seed, seconds.Seconds(), traced)
}

// run executes one workload: the set-ups, then whole rounds until the
// timed phase has lasted seconds, timed minOps operations and completed
// the reference prefix.
func run(w workload, seed int64, seconds time.Duration, traced bool) (*result, error) {
	pin()
	fmt.Println(header(w, seed, seconds, traced))
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var inst instance
	var checkErr error
	var setups []float64
	for total := 0.0; len(setups) < setupReps || total < setupMin.Seconds(); {
		t0 := time.Now()
		inst = nil // let the previous set-up be collected
		var err error
		inst, err = w.build(seed, tr)
		if err != nil && !errors.As(err, new(checkError)) {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		checkErr = err
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
		// Drop the earlier set-ups' garbage, untimed.
		runtime.GC()
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	m := &meter{deadline: seconds}
	var t tally
	base := readCounts(inst.nets())
	var prefix *prefixStats
	if checkErr != nil {
		fmt.Fprintf(stderr, "%s: set-up check failed: %v\n", w.name, checkErr)
	}
	for r := 0; ; r++ {
		if r == w.refRounds {
			prefix = takePrefix(inst, base, t)
		}
		if r >= w.refRounds && len(m.opMs) >= minOps && m.expired() {
			break
		}
		if err := inst.round(r, m, tr, &t); err != nil {
			checkErr = err
			fmt.Fprintf(stderr, "%s: check failed: %v\n", w.name, err)
			break
		}
	}
	if traced {
		pprof.StopCPUProfile()
	}
	if prefix == nil {
		prefix = takePrefix(inst, base, t)
	}
	rec := prefix.record(w.name, seed, inst.mcs())
	recLine, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Printf("simstats %s\n", recLine)
	fmt.Printf("simstats-reference: %s\n", compareReference(rec))

	res := &result{
		Correct:   checkErr == nil,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation attempted", w.name)
	}
	if !traced {
		endToEnd(res.Metrics, m, &t, setups)
		return res, nil
	}
	profPath, err := writeTrace(w.name, seed, tr.spans, prof.Bytes())
	if err != nil {
		return nil, err
	}
	samples, err := readCPUProfile(profPath)
	if err != nil {
		return nil, err
	}
	perLayer(res.Metrics, m, tr.spans, samples, prefix)
	return res, nil
}

// endToEnd fills the metrics a user of the simulator sees.
func endToEnd(out map[string]metric, m *meter, t *tally, setups []float64) {
	ops := float64(len(m.opMs))
	wall := m.wall.Seconds()
	out["ops_per_s"] = metric{ops / wall, "1/s"}
	out["op_p50_ms"] = metric{percentile(m.opMs, 50), "ms"}
	out["op_p90_ms"] = metric{percentile(m.opMs, 90), "ms"}
	out["cpu_ms_per_op"] = metric{float64(m.cpu) / 1e6 / ops, "ms"}
	out["delivered_mbit_per_s"] = metric{t.deliveredBits / 1e6 / wall, "Mbit/s"}
	out["alloc_mb_per_op"] = metric{float64(m.allocBytes) / 1e6 / ops, "MB"}
	out["allocs_per_op"] = metric{float64(m.allocs) / ops, "1"}
	out["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out["setup_s"] = metric{median(setups), "s"}
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// writeTrace writes the spans and the CPU profile of a traced run and
// returns the profile's path.
func writeTrace(name string, seed int64, spans []span, prof []byte) (string, error) {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return "", err
	}
	return base + ".cpu.pprof", os.WriteFile(base+".cpu.pprof", prof, 0o644)
}
