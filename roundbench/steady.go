package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// childRun is what one workload process printed.
type childRun struct {
	res      result
	simstats string
}

// runChild runs one workload in its own process, so its memory figures
// are its own, and waits for it.
func runChild(name string, seed int64, seconds float64, trace int) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	cr := &childRun{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "simstats "); ok {
			cr.simstats = rest
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return cr, nil
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steadyRuns is how many runs, over seeds 1..steadyRuns, the steadiness
// check makes per workload and set.
const steadyRuns = 10

// benchSpec is the part of BENCHMARK.json the steadiness check and the
// layer report read: the run length and the end-to-end bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if spec.RunSeconds <= 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d", spec.RunSeconds)
	}
	return &spec, nil
}

// bound returns an end-to-end metric's bound.
func (s *benchSpec) bound(name string) (float64, error) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("BENCHMARK.json: no bound for %s", name)
}

// steadyCmd runs every workload over seeds 1..steadyRuns for BENCHMARK.json's
// run_seconds and prints, per end-to-end metric, the median, the quartiles,
// the quartile spread and (max−min)/median against the metric's bound. A
// spread above the bound fails, except setup_s's: the machine's speed moves
// a sub-second set-up from run to run, so setup_s is held to its bound only
// between the medians of two sets. With -sets 2 it repeats the whole set
// and also fails when the two sets' medians differ by more than the bound,
// either way, when the failed shares differ, or when any seed's
// simulated-statistics record differs.
func steadyCmd(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	sets := fs.Int("sets", 1, "number of sets (2 compares them)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	seconds := float64(spec.RunSeconds)
	bad := 0
	for _, w := range workloads {
		type setResult struct {
			values            map[string][]float64
			attempted, failed int
			simstats          map[int64]string
		}
		var results []setResult
		for set := 0; set < *sets; set++ {
			sr := setResult{values: map[string][]float64{}, simstats: map[int64]string{}}
			for i := 0; i < steadyRuns; i++ {
				seed := int64(1 + i)
				t0 := time.Now()
				cr, err := runChild(w.name, seed, seconds, 0)
				if err != nil {
					return err
				}
				fmt.Fprintf(stderr, "steady: %s set %d seed %d: %.1fs, ops_per_s %.4g, op_p90_ms %.4g, cpu_ms_per_op %.4g\n",
					w.name, set+1, seed, time.Since(t0).Seconds(), cr.res.Metrics["ops_per_s"].Value,
					cr.res.Metrics["op_p90_ms"].Value, cr.res.Metrics["cpu_ms_per_op"].Value)
				if !cr.res.Correct {
					fmt.Printf("FAIL %s seed %d: correct=false\n", w.name, seed)
					bad++
				}
				sr.attempted += cr.res.Attempted
				sr.failed += cr.res.Failed
				sr.simstats[seed] = cr.simstats
				for n, m := range cr.res.Metrics {
					sr.values[n] = append(sr.values[n], m.Value)
				}
			}
			results = append(results, sr)
		}
		fmt.Printf("\n%s: %d runs x %d set(s), seeds 1..%d, %gs each\n", w.name, steadyRuns, *sets, steadyRuns, seconds)
		fmt.Printf("  %-22s %12s %12s %12s %10s %10s %7s\n", "metric", "median", "q1", "q3", "iqr/med", "range/med", "bound")
		for _, nu := range endToEndMetrics {
			name := nu[0]
			b, err := spec.bound(name)
			if err != nil {
				return err
			}
			var meds []float64
			for s, sr := range results {
				q1, med, q3 := quartiles(sr.values[name])
				lo, hi := minMax(sr.values[name])
				spread := (q3 - q1) / med
				verdict := ""
				switch {
				case name == "setup_s":
					verdict = "  spread not gated"
				case spread > b:
					verdict = "  FAIL spread > bound"
					bad++
				case spread > b/3:
					verdict = "  over a third of the bound"
				}
				fmt.Printf("  %-22s %12.6g %12.6g %12.6g %10.4f %10.4f %7.3g%s (set %d)\n",
					name, med, q1, q3, spread, (hi-lo)/med, b, verdict, s+1)
				meds = append(meds, med)
			}
			if len(meds) == 2 {
				if d := math.Abs(meds[1]-meds[0]) / meds[0]; d > b {
					fmt.Printf("  FAIL %s: set medians differ by %.4f > bound %.3g\n", name, d, b)
					bad++
				}
			}
		}
		for s, sr := range results {
			fmt.Printf("  set %d: attempted %d, failed %d (share %.6g)\n", s+1, sr.attempted, sr.failed,
				float64(sr.failed)/float64(sr.attempted))
		}
		if len(results) == 2 {
			a, b := results[0], results[1]
			if float64(a.failed)/float64(a.attempted) != float64(b.failed)/float64(b.attempted) {
				fmt.Printf("  FAIL %s: failed shares differ between sets\n", w.name)
				bad++
			}
			same := true
			for seed, rec := range a.simstats {
				if b.simstats[seed] != rec {
					same = false
					fmt.Printf("  FAIL %s seed %d: simulated-statistics records differ\n", w.name, seed)
					bad++
				}
			}
			if same {
				fmt.Printf("  simulated-statistics records identical across sets for all %d seeds\n", len(a.simstats))
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("steady: %d failure(s)", bad)
	}
	return nil
}

func higherIsBetter(name string) bool {
	return name == "ops_per_s" || name == "delivered_mbit_per_s"
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// coverageTolerance is how far the CPU the profile attributes to layers may
// fall from the traced run's getrusage CPU, as a fraction of the latter.
const coverageTolerance = 0.10

// layersCmd runs every workload with seed 1 for BENCHMARK.json's
// run_seconds, untraced and traced, prints every per-layer metric, checks
// that the layers' CPU adds up to the traced run's cpu_ms_per_op within
// coverageTolerance, and reports the tracing overhead as untraced against
// traced ops_per_s.
func layersCmd(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("layers takes no arguments")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	seconds := float64(spec.RunSeconds)
	bad := 0
	traced := map[string]map[string]metric{}
	for _, w := range workloads {
		plain, err := runChild(w.name, 1, seconds, 0)
		if err != nil {
			return err
		}
		tr, err := runChild(w.name, 1, seconds, 1)
		if err != nil {
			return err
		}
		ms := tr.res.Metrics
		traced[w.name] = ms
		for _, nu := range perLayerMetrics() {
			if _, ok := ms[nu[0]]; !ok {
				fmt.Printf("FAIL %s: per-layer metric %s missing\n", w.name, nu[0])
				bad++
			}
		}
		sum, cpu := layerSum(ms), ms["trace.cpu_ms_per_op"].Value
		cov := sum / cpu
		verdict := "ok"
		if math.Abs(cov-1) > coverageTolerance {
			verdict = "FAIL"
			bad++
		}
		overhead := plain.res.Metrics["ops_per_s"].Value/ms["trace.ops_per_s"].Value - 1
		fmt.Printf("%s: layers sum to %.3f ms/op against getrusage %.3f ms/op (ratio %.3f, tolerance ±%.0f%%) %s\n",
			w.name, sum, cpu, cov, coverageTolerance*100, verdict)
		fmt.Printf("%s: tracing overhead %.1f%% (untraced %.4g ops/s, traced %.4g ops/s; untraced cpu_ms_per_op %.4g)\n",
			w.name, overhead*100, plain.res.Metrics["ops_per_s"].Value, ms["trace.ops_per_s"].Value,
			plain.res.Metrics["cpu_ms_per_op"].Value)
	}
	fmt.Printf("\n%-36s", "per-layer metric")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Printf("  unit\n")
	for _, nu := range perLayerMetrics() {
		fmt.Printf("%-36s", nu[0])
		for _, w := range workloads {
			fmt.Printf(" %16.4f", traced[w.name][nu[0]].Value)
		}
		fmt.Printf("  %s\n", nu[1])
	}
	if bad > 0 {
		return fmt.Errorf("layers: %d failure(s)", bad)
	}
	return nil
}

// referenceSeeds is how many seeds, 1..referenceSeeds, the reference
// simulated-statistics records cover.
const referenceSeeds = 3

// referenceCmd regenerates the reference simulated-statistics records:
// every workload's reference prefix for seeds 1..referenceSeeds, untimed.
func referenceCmd(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("reference takes no arguments")
	}
	pin()
	var recs []simStats
	for _, w := range workloads {
		for seed := int64(1); seed <= referenceSeeds; seed++ {
			rec, err := referenceRecord(w, seed)
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "reference: %s seed %d: %d ops\n", w.name, seed, rec.Ops)
			recs = append(recs, rec)
		}
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("roundbench/testdata/reference.json", append(data, '\n'), 0o644)
}

// referenceRecord runs one workload's set-up and reference prefix.
func referenceRecord(w workload, seed int64) (simStats, error) {
	inst, err := w.build(seed, nil)
	if err != nil {
		return simStats{}, err
	}
	var m meter
	var t tally
	base := readCounts(inst.nets())
	for r := 0; r < w.refRounds; r++ {
		if err := inst.round(r, &m, nil, &t); err != nil {
			return simStats{}, err
		}
	}
	return takePrefix(inst, base, t).record(w.name, seed, inst.mcs()), nil
}
