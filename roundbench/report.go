package main

import (
	_ "embed"
	"encoding/json"
	"math"
	"strings"

	"megamimo/internal/core"
	"megamimo/internal/mac"
)

// counterNames are the program's counters the simulated-statistics record
// and the per-layer counts read from every topology's Network.Metrics().
var counterNames = []string{
	"backend_dropped_total",
	"core_joint_tx_total",
	"core_measurements_total",
	"core_streams_delivered_total",
	"core_sync_header_samples_total",
	"degraded_rounds_total",
	"fault_injected_total",
	"lead_failovers_total",
	"mac_packets_delivered_total",
	"mac_packets_failed_total",
	"mac_retransmissions_total",
	"phy_decode_failures_total",
	"phy_fcs_failures_total",
	"sync_abstain_total",
	"traffic_arrivals_total",
	"traffic_drops_total",
}

type counts map[string]int64

// readCounts sums the named counters over the networks.
func readCounts(nets []*core.Network) counts {
	c := counts{}
	for _, n := range nets {
		reg := n.Metrics()
		for _, name := range counterNames {
			c[name] += reg.Counter(name).Value()
		}
	}
	return c
}

// prefixStats is what the reference prefix of a run produced: exact for a
// given seed, whatever the machine and the run's length.
type prefixStats struct {
	ops      int
	delta    counts
	tally    tally
	queueP90 float64
}

// takePrefix closes the prefix: counter deltas since the timed phase
// began, the harness's tally so far and the queue-depth p90.
func takePrefix(inst instance, base counts, t tally) *prefixStats {
	now := readCounts(inst.nets())
	p := &prefixStats{ops: t.attempted, delta: counts{}, tally: t}
	for k, v := range now {
		p.delta[k] = v - base[k]
	}
	var q []float64
	for _, n := range inst.nets() {
		if h := n.Metrics().Histogram("mac_queue_depth", mac.QueueDepthBuckets()); h.Count() > 0 {
			q = append(q, h.Quantile(0.9))
		}
	}
	for _, v := range q {
		p.queueP90 += v / float64(len(q))
	}
	return p
}

// simStats is the simulated-statistics record: what the simulation did
// over the reference prefix, independent of how fast it ran. A change
// that only makes the program faster leaves it byte-identical.
type simStats struct {
	Workload      string   `json:"workload"`
	Seed          int64    `json:"seed"`
	Ops           int      `json:"ops"`
	MCS           []string `json:"mcs,omitempty"`
	StreamsSent   int64    `json:"streams_sent,omitempty"`
	StreamsIntact int64    `json:"streams_intact,omitempty"`
	Storm         *ledger  `json:"storm,omitempty"`
	Counters      counts   `json:"counters"`
}

func (p *prefixStats) record(name string, seed int64, mcs []string) simStats {
	s := simStats{
		Workload:      name,
		Seed:          seed,
		Ops:           p.ops,
		MCS:           mcs,
		StreamsSent:   p.tally.streamsSent,
		StreamsIntact: p.tally.streamsIntact,
		Counters:      p.delta,
	}
	if p.tally.storm != (ledger{}) {
		l := p.tally.storm
		s.Storm = &l
	}
	return s
}

//go:embed testdata/reference.json
var referenceJSON []byte

// compareReference says whether a record equals the checked-in reference
// record for its workload and seed.
func compareReference(rec simStats) string {
	var refs []simStats
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return "unreadable reference: " + err.Error()
	}
	for _, r := range refs {
		if r.Workload != rec.Workload || r.Seed != rec.Seed {
			continue
		}
		a, _ := json.Marshal(r)
		b, _ := json.Marshal(rec)
		if string(a) == string(b) {
			return "match"
		}
		return "DIFFERS from " + string(a)
	}
	return "no reference for this seed"
}

// endToEndMetrics and perLayerMetrics name every metric a run reports, with
// its unit, in the order BENCHMARK.json lists them.
var endToEndMetrics = [][2]string{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"delivered_mbit_per_s", "Mbit/s"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "1"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// spanMetrics are computed from the harness's spans.
var spanMetrics = []string{
	"core.new_ms", "core.setup_measure_ms", "core.probe_ms",
	"core.measure_ms_per_op", "core.precode_ms_per_op", "channel.evolve_ms_per_op",
	"core.joint_tx_ms_per_op", "traffic.round_ms_p50",
}

// countMetrics map per-layer count metrics to the counter they divide by
// the prefix's operations.
var countMetrics = [][2]string{
	{"core.streams_delivered_per_op", "core_streams_delivered_total"},
	{"phy.fcs_failures_per_op", "phy_fcs_failures_total"},
	{"phy.decode_failures_per_op", "phy_decode_failures_total"},
	{"core.sync_header_samples_per_op", "core_sync_header_samples_total"},
	{"core.degraded_rounds_per_op", "degraded_rounds_total"},
	{"sync.abstains_per_op", "sync_abstain_total"},
	{"mac.retransmissions_per_op", "mac_retransmissions_total"},
	{"mac.packets_failed_per_op", "mac_packets_failed_total"},
	{"backend.dropped_per_op", "backend_dropped_total"},
	{"fault.injected_per_op", "fault_injected_total"},
}

// perLayerMetrics lists every per-layer metric with its unit.
func perLayerMetrics() [][2]string {
	var out [][2]string
	for _, n := range spanMetrics {
		out = append(out, [2]string{n, "ms"})
	}
	for _, p := range cpuPackages {
		out = append(out, [2]string{p + ".cpu_ms_per_op", "ms"})
	}
	out = append(out,
		[2]string{"harness.cpu_ms_per_op", "ms"},
		[2]string{"runtime.alloc_cpu_ms_per_op", "ms"},
		[2]string{"runtime.gc_cpu_ms_per_op", "ms"},
		[2]string{"other.cpu_ms_per_op", "ms"},
	)
	for _, s := range stageNames {
		out = append(out, [2]string{"stage." + s + "_cpu_ms_per_op", "ms"})
	}
	for _, c := range countMetrics {
		out = append(out, [2]string{c[0], "count"})
	}
	out = append(out,
		[2]string{"core.delivered_ratio", "1"},
		[2]string{"mac.queue_depth_p90", "count"},
		[2]string{"runtime.gc_cycles_per_op", "count"},
		[2]string{"runtime.gc_pause_ms_per_op", "ms"},
		[2]string{"trace.ops_per_s", "1/s"},
		[2]string{"trace.cpu_ms_per_op", "ms"},
		[2]string{"profile.cpu_coverage", "1"},
	)
	return out
}

// perLayer fills the per-layer metrics of a traced run.
func perLayer(out map[string]metric, m *meter, spans []span, samples []sample, p *prefixStats) {
	units := map[string]string{}
	for _, nu := range perLayerMetrics() {
		units[nu[0]] = nu[1]
		out[nu[0]] = metric{0, nu[1]}
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{v, units[name]}
	}
	ops := float64(len(m.opMs))

	// Spans.
	setupMean := func(names ...string) float64 {
		var sum float64
		var n int
		for _, s := range spans {
			for _, name := range names {
				if s.Name == name && s.Op < 0 {
					sum += s.ms()
					n++
				}
			}
		}
		return sum / float64(n)
	}
	perOp := func(name string) float64 {
		var sum float64
		for _, s := range spans {
			if s.Name == name && s.Op >= 0 {
				sum += s.ms()
			}
		}
		return sum / ops
	}
	set("core.new_ms", setupMean("core.New"))
	set("core.setup_measure_ms", setupMean("core.Measure"))
	set("core.probe_ms", setupMean("core.ProbeAndSelectRate", "traffic.Prepare"))
	set("core.measure_ms_per_op", perOp("core.Measure"))
	set("core.precode_ms_per_op", perOp("core.Precode"))
	set("channel.evolve_ms_per_op", perOp("core.EvolveClientLinks"))
	set("core.joint_tx_ms_per_op", perOp("core.JointTransmit"))
	var rounds []float64
	for _, s := range spans {
		if s.Name == "traffic.round" {
			rounds = append(rounds, s.ms())
		}
	}
	set("traffic.round_ms_p50", percentile(rounds, 50))

	// CPU by layer and by stage.
	byPkg, byStage := map[string]int64{}, map[string]int64{}
	var total int64
	for _, s := range samples {
		if s.Labels["phase"] == "untimed" {
			continue
		}
		total += s.CPUNs
		byPkg[packageOf(s.Stack)] += s.CPUNs
		byStage[stageOf(s.Stack)] += s.CPUNs
	}
	msPerOp := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	for pkg, ns := range byPkg {
		switch pkg {
		case "runtime.alloc", "runtime.gc":
			set(pkg+"_cpu_ms_per_op", msPerOp(ns))
		default:
			set(pkg+".cpu_ms_per_op", msPerOp(ns))
		}
	}
	for st, ns := range byStage {
		set("stage."+st+"_cpu_ms_per_op", msPerOp(ns))
	}

	// Counts over the reference prefix.
	pops := float64(p.ops)
	for _, c := range countMetrics {
		set(c[0], float64(p.delta[c[1]])/pops)
	}
	ok := p.delta["core_streams_delivered_total"]
	sent := ok + p.delta["phy_fcs_failures_total"] + p.delta["phy_decode_failures_total"]
	set("core.delivered_ratio", float64(ok)/float64(sent))
	set("mac.queue_depth_p90", p.queueP90)
	set("runtime.gc_cycles_per_op", float64(m.gcCycles)/ops)
	set("runtime.gc_pause_ms_per_op", float64(m.gcPause)/1e6/ops)

	set("trace.ops_per_s", ops/m.wall.Seconds())
	set("trace.cpu_ms_per_op", float64(m.cpu)/1e6/ops)
	set("profile.cpu_coverage", float64(total)/float64(m.cpu))
}

// layerSum is the CPU the attribution charged to layers per operation: the
// packages, the harness, the runtime and "other" together.
func layerSum(ms map[string]metric) float64 {
	var sum float64
	for _, nu := range perLayerMetrics() {
		n := nu[0]
		if strings.HasSuffix(n, "cpu_ms_per_op") && !strings.HasPrefix(n, "stage.") && !strings.HasPrefix(n, "trace.") {
			sum += ms[n].Value
		}
	}
	return sum
}
