package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"megamimo/internal/channel"
	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/fault"
	"megamimo/internal/phy"
	"megamimo/internal/traffic"
	"megamimo/internal/units"
)

// workload is one benchmark workload. Its operations are downlink rounds;
// a benchmark round is one operation on each of its topologies (one
// episode for the demand storm), and every run executes whole rounds.
type workload struct {
	name string
	why  string
	// refRounds is the length of the prefix the simulated-statistics
	// record and the per-layer counts cover, and the fewest rounds a run
	// executes whatever its length.
	refRounds int
	build     func(seed int64, tr *tracer) (instance, error)
}

// instance is a workload after set-up.
type instance interface {
	// round runs one benchmark round, timing it into m. A check failure
	// comes back as an error; an operation that fails is counted in
	// tally. (build likewise returns a usable instance with a checkError
	// when a set-up check fails.)
	round(r int, m *meter, tr *tracer, t *tally) error
	nets() []*core.Network
	// mcs names the rate each topology transmits at (nil where the
	// program does not expose it).
	mcs() []string
}

// tally counts what the harness itself observes over the timed phase.
type tally struct {
	attempted, failed int
	streamsSent       int64
	streamsIntact     int64
	deliveredBits     float64
	storm             ledger
}

var workloads = []workload{
	{
		name:      "joint-10ap",
		why:       "Fig 9's inner loop at 10 APs: 1500-byte joint frames at the probed MCS; receive chain, air and synthesis do the work",
		refRounds: 2,
		build:     buildJoint,
	},
	{
		name:      "refresh-10ap",
		why:       "mobile clients at 10 APs: age links, re-measure, ZF-cache precode and send a short frame; measurement, rng and matrix dominate",
		refRounds: 1,
		build:     buildRefresh,
	},
	{
		name:      "demand-storm-6ap",
		why:       "user demand through traffic and mac at 6 APs under a seeded fault storm: crashes, failover, backend loss, churn",
		refRounds: 3,
		build:     buildStorm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topologySeed fixes the workloads' topologies: every run measures the same
// networks, and --seed varies what is sent over them (payloads, demand,
// fault storms). An operation's cost follows the MCS its topology
// supports, so topologies drawn per seed would make the figures of one
// seed incomparable with another's.
const topologySeed = 2012

// subSeed derives an independent seed for one input of the workload from
// a base seed (splitmix64 over the seed, a tag and an index).
func subSeed(seed int64, tag uint64, i int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ tag<<32 ^ uint64(i)
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// fill overwrites buf with bytes from r.
func fill(r *rand.Rand, buf []byte) {
	var w [8]byte
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(w[:], r.Uint64())
		copy(buf[i:], w[:])
	}
}

// mmseLambda regularizes the 10-AP workloads' zero-forcing as Fig 9 does:
// λ = the receivers' noise variance.
var mmseLambda = core.DefaultConfig(1, 1, 0, 0).NoiseVar

// topology is one measured and precoded network and the rate it uses.
type topology struct {
	net *core.Network
	mcs phy.MCS
}

// newTopology builds, measures and precodes one network of n APs and n
// clients in an SNR bin, checking the installed precoder.
func newTopology(n int, bin experiment.SNRBin, seed int64, lambda float64, tr *tracer) (*core.Network, error) {
	cfg := core.DefaultConfig(n, n, bin.Lo, bin.Hi)
	cfg.Seed = seed
	cfg.WellConditioned = true
	var net *core.Network
	err := tr.call("core.New", -1, func() (err error) {
		net, err = core.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.call("core.Measure", -1, net.Measure); err != nil {
		return nil, err
	}
	var pre *core.Precoder
	err = tr.call("core.Precode", -1, func() (err error) {
		pre, err = net.Precode(lambda)
		return err
	})
	if err != nil {
		return nil, err
	}
	return net, checkInstalled(net, pre, lambda)
}

// checkInstalled checks an installed precoder against the measurement it
// was computed from; a failure is a checkError.
func checkInstalled(net *core.Network, pre *core.Precoder, lambda float64) error {
	m := net.Msmt
	h := make([]cmat, len(m.H))
	w := make([]cmat, len(pre.W))
	for i, x := range m.H {
		h[i] = cmat{x.Rows, x.Cols, x.Data}
	}
	for i, x := range pre.W {
		w[i] = cmat{x.Rows, x.Cols, x.Data}
	}
	if err := checkPrecoder(h, w, pre.PowerScale, lambda); err != nil {
		return checkError{err}
	}
	return nil
}

// probe picks a topology's joint MCS with the program's closed-loop probe.
// A topology whose probe finds no rate falls back to the base rate, so the
// workload never depends on the probe's outcome to keep going.
func probe(net *core.Network, payloadBytes int, tr *tracer) (phy.MCS, error) {
	var mcs phy.MCS
	var ok bool
	err := tr.call("core.ProbeAndSelectRate", -1, func() (err error) {
		mcs, ok, err = net.ProbeAndSelectRate(payloadBytes)
		return err
	})
	if !ok {
		mcs = phy.MCS0
	}
	return mcs, err
}

// jointSend runs one joint transmission of payloads on a topology and
// accounts every stream; a good-FCS frame carrying wrong bytes, or an
// error from the call, fails the operation.
func jointSend(tp topology, payloads [][]byte, op int, tr *tracer, t *tally) error {
	var res *core.TxResult
	err := tr.call("core.JointTransmit", op, func() (err error) {
		res, err = tp.net.JointTransmit(payloads, tp.mcs)
		return err
	})
	if err != nil {
		return err
	}
	for j, p := range payloads {
		t.streamsSent++
		var got []byte
		if res.Frames[j] != nil {
			got = res.Frames[j].Payload
		}
		intact, err := streamIntact(p, got, res.OK[j])
		if err != nil {
			return fmt.Errorf("stream %d: %w", j, err)
		}
		if intact {
			t.streamsIntact++
			t.deliveredBits += float64(8 * len(p))
		}
	}
	return nil
}

// opFailed records a failed operation on stderr.
func opFailed(t *tally, op int, err error) {
	t.failed++
	fmt.Fprintf(stderr, "operation %d failed: %v\n", op, err)
}

func payloadSet(streams, size int) [][]byte {
	p := make([][]byte, streams)
	for j := range p {
		p[j] = make([]byte, size)
	}
	return p
}

func mcsNames(tps []topology) []string {
	out := make([]string, len(tps))
	for i, tp := range tps {
		out[i] = tp.mcs.String()
	}
	return out
}

func netsOf(tps []topology) []*core.Network {
	out := make([]*core.Network, len(tps))
	for i, tp := range tps {
		out[i] = tp.net
	}
	return out
}

// ---- joint-10ap -------------------------------------------------------------

// jointTopologies is three 10-AP topologies per SNR bin.
const (
	jointAPs        = 10
	jointTopologies = 9
	jointPayload    = experiment.PayloadBytes
)

type jointInst struct {
	tps      []topology
	payloads [][]byte
	rnd      *rand.Rand
}

func buildJoint(seed int64, tr *tracer) (instance, error) {
	in := &jointInst{
		payloads: payloadSet(jointAPs, jointPayload),
		rnd:      rand.New(rand.NewPCG(uint64(subSeed(seed, 'P', 0)), 1)),
	}
	var bad error
	for t := 0; t < jointTopologies; t++ {
		bin := experiment.AllBins[t%len(experiment.AllBins)]
		net, err := newTopology(jointAPs, bin, subSeed(topologySeed, 'J', t), mmseLambda, tr)
		if err = asCheck(err, &bad); err != nil {
			return nil, fmt.Errorf("joint topology %d: %w", t, err)
		}
		mcs, err := probe(net, 256, tr)
		if err != nil {
			return nil, fmt.Errorf("joint topology %d probe: %w", t, err)
		}
		in.tps = append(in.tps, topology{net, mcs})
	}
	// The rate probe is each topology's warm-up: a joint transmission
	// through the same path the operations take.
	return in, bad
}

func (in *jointInst) refill() {
	for _, p := range in.payloads {
		fill(in.rnd, p)
	}
}

func (in *jointInst) round(r int, m *meter, tr *tracer, t *tally) error {
	m.start()
	defer m.stop()
	for k, tp := range in.tps {
		op := r*len(in.tps) + k
		in.refill()
		t0 := time.Now()
		err := jointSend(tp, in.payloads, op, tr, t)
		m.op(time.Since(t0))
		t.attempted++
		if err != nil {
			opFailed(t, op, err)
		}
	}
	return nil
}

func (in *jointInst) nets() []*core.Network { return netsOf(in.tps) }
func (in *jointInst) mcs() []string         { return mcsNames(in.tps) }

// ---- refresh-10ap -----------------------------------------------------------

const (
	refreshAPs        = 10
	refreshTopologies = 6
	refreshPayload    = 100
	// refreshSteps is how many operations each topology runs in one
	// benchmark round. Every round starts from the links set-up left, so
	// a link is aged at most refreshSteps times and operation k of a round
	// sees the same fading however long the run is.
	refreshSteps = 10
)

// refreshCoherence is the clients' channel coherence time, §5's 250 ms in
// 10 MHz samples. Each operation ages a topology's links by the ether
// time since its previous operation, ρ = e^(−Δt/Tc): one operation spans
// about 10,400 samples, so ρ ≈ 0.9958.
const refreshCoherence = units.Samples(2_500_000)

type refreshInst struct {
	tps      []topology
	lastAt   []int64 // ether time each topology was last aged
	links    []savedLink
	payloads [][]byte
	rnd      *rand.Rand
}

// savedLink is an AP→client link and its taps as set-up left them.
type savedLink struct {
	link *channel.Link
	taps []complex128
}

func buildRefresh(seed int64, tr *tracer) (instance, error) {
	in := &refreshInst{
		payloads: payloadSet(refreshAPs, refreshPayload),
		rnd:      rand.New(rand.NewPCG(uint64(subSeed(seed, 'P', 1)), 2)),
	}
	var bad error
	for t := 0; t < refreshTopologies; t++ {
		bin := experiment.AllBins[t%len(experiment.AllBins)]
		net, err := newTopology(refreshAPs, bin, subSeed(topologySeed, 'R', t), mmseLambda, tr)
		if err = asCheck(err, &bad); err != nil {
			return nil, fmt.Errorf("refresh topology %d: %w", t, err)
		}
		mcs, err := probe(net, refreshPayload, tr)
		if err != nil {
			return nil, fmt.Errorf("refresh topology %d probe: %w", t, err)
		}
		in.tps = append(in.tps, topology{net, mcs})
		in.lastAt = append(in.lastAt, net.Now())
	}
	var warm tally
	for t, tp := range in.tps {
		pre, err := in.refresh(t, -1, tr, &warm)
		if err == nil {
			err = asCheck(checkInstalled(tp.net, pre, mmseLambda), &bad)
		}
		if err != nil {
			return nil, fmt.Errorf("refresh warm-up: %w", err)
		}
	}
	for _, tp := range in.tps {
		n := tp.net
		for c := 0; c < n.Cfg.NumClients; c++ {
			for a := 0; a < n.Cfg.NumAPs; a++ {
				for am := 0; am < n.Cfg.AntennasPerAP; am++ {
					for cm := 0; cm < n.Cfg.AntennasPerClient; cm++ {
						if l := n.Air.Link(n.APAntennaID(a, am), n.ClientAntennaID(c, cm)); l != nil {
							in.links = append(in.links, savedLink{l, append([]complex128(nil), l.Taps...)})
						}
					}
				}
			}
		}
	}
	return in, bad
}

// refresh is one operation: age every client's links, re-measure,
// precode through the ZF cache and send one short joint frame. It returns
// the installed precoder for the caller to check outside the timed call.
func (in *refreshInst) refresh(k, op int, tr *tracer, t *tally) (*core.Precoder, error) {
	for _, p := range in.payloads {
		fill(in.rnd, p)
	}
	tp := in.tps[k]
	n := tp.net
	rho := channel.CoherenceRho(units.Samples(n.Now()-in.lastAt[k]), refreshCoherence)
	in.lastAt[k] = n.Now()
	err := tr.call("core.EvolveClientLinks", op, func() error {
		for c := 0; c < n.Cfg.NumClients; c++ {
			n.EvolveClientLinks(c, rho)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := tr.call("core.Measure", op, n.Measure); err != nil {
		return nil, err
	}
	var pre *core.Precoder
	err = tr.call("core.Precode", op, func() (err error) {
		pre, err = n.Precode(mmseLambda)
		return err
	})
	if err != nil {
		return nil, err
	}
	return pre, jointSend(tp, in.payloads, op, tr, t)
}

// round restores the links set-up left and runs refreshSteps operations on
// every topology. The restore and each precoder check are the harness's
// own work and stay outside the timed intervals.
func (in *refreshInst) round(r int, m *meter, tr *tracer, t *tally) error {
	if err := tr.untimed(in.restoreLinks); err != nil {
		return err
	}
	for s := 0; s < refreshSteps; s++ {
		for k, tp := range in.tps {
			op := (r*refreshSteps+s)*len(in.tps) + k
			m.start()
			t0 := time.Now()
			pre, err := in.refresh(k, op, tr, t)
			m.op(time.Since(t0))
			m.stop()
			t.attempted++
			if err != nil {
				opFailed(t, op, err)
				continue
			}
			err = tr.untimed(func() error { return checkInstalled(tp.net, pre, mmseLambda) })
			if err != nil {
				return fmt.Errorf("operation %d: %w", op, err)
			}
		}
	}
	return nil
}

// restoreLinks puts back every AP→client link's taps as set-up left them.
func (in *refreshInst) restoreLinks() error {
	for _, s := range in.links {
		copy(s.link.Taps, s.taps)
	}
	return nil
}

func (in *refreshInst) nets() []*core.Network { return netsOf(in.tps) }
func (in *refreshInst) mcs() []string         { return mcsNames(in.tps) }

// ---- demand-storm-6ap -------------------------------------------------------

const (
	stormAPs        = 6
	stormTopologies = 3
	// stormWindow is one episode's simulated length: about 13 service
	// rounds at 6 APs.
	stormWindow = 0.010
	// stormIntensity is the expected faults per simulated second
	// (4 per episode).
	stormIntensity = 400
	// stormLoadBps is each client's long-run offered load. Six of them
	// (66 Mb/s) sit just past what MegaMIMO delivers under the storm at
	// 6 APs (about 45 Mb/s), so every episode ends with a standing backlog.
	stormLoadBps = 11e6
)

// stormKinds is the demand mix, one profile per client.
var stormKinds = []traffic.Kind{
	traffic.Poisson, traffic.Poisson, traffic.OnOff, traffic.OnOff,
	traffic.HeavyTailed, traffic.HeavyTailed,
}

type stormInst struct {
	seed    int64
	topos   []*core.Network
	pending []*episode // prepared engines, one per topology
	next    int        // index of the next episode to prepare
}

// episode is one prepared traffic engine with its fault storm.
type episode struct {
	index int
	net   *core.Network
	eng   *traffic.Engine
	// onRound is the engine's OnRound hook; the harness points it at the
	// round being timed.
	onRound func(rounds int) error
}

func buildStorm(seed int64, tr *tracer) (instance, error) {
	in := &stormInst{seed: seed}
	var bad error
	for t := 0; t < stormTopologies; t++ {
		net, err := newTopology(stormAPs, experiment.HighSNR, subSeed(topologySeed, 'S', t), 0, tr)
		if err = asCheck(err, &bad); err != nil {
			return nil, fmt.Errorf("storm topology %d: %w", t, err)
		}
		in.topos = append(in.topos, net)
	}
	for t := 0; t < stormTopologies; t++ {
		ep, err := in.prepare(tr)
		if err != nil {
			return nil, err
		}
		in.pending = append(in.pending, ep)
	}
	return in, bad
}

// prepare builds the next episode's engine on its topology: a fresh
// seeded fault storm over the episode window and the demand mix, with the
// rate probe (Engine.Prepare) run now so the episode times only service.
func (in *stormInst) prepare(tr *tracer) (*episode, error) {
	k := in.next
	in.next++
	net := in.topos[k%len(in.topos)]
	start := net.Now()
	plan := fault.Scenario{
		Seed:       subSeed(in.seed, 'F', k),
		Start:      start,
		Horizon:    start + int64(units.TicksIn(stormWindow, net.Cfg.SampleRate)),
		SampleRate: net.Cfg.SampleRate,
		NumAPs:     stormAPs,
		NumStreams: net.NumStreams(),
		Intensity:  stormIntensity,
	}.Plan()
	profiles := make([]traffic.Profile, net.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.ProfileFor(stormKinds[i%len(stormKinds)], stormLoadBps, experiment.PayloadBytes)
	}
	ep := &episode{index: k, net: net}
	err := tr.call("traffic.New", -1, func() (err error) {
		ep.eng, err = traffic.New(net, traffic.Config{
			System:   traffic.SystemMegaMIMO,
			Profiles: profiles,
			Seed:     subSeed(in.seed, 'E', k),
			Faults:   plan,
			OnRound:  func(r int) error { return ep.onRound(r) },
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("storm episode %d: %w", k, err)
	}
	if err := tr.call("traffic.Prepare", -1, ep.eng.Prepare); err != nil {
		return nil, fmt.Errorf("storm episode %d prepare: %w", k, err)
	}
	return ep, nil
}

func (in *stormInst) round(r int, m *meter, tr *tracer, t *tally) error {
	if len(in.pending) == 0 {
		// Set-up prepared one episode per topology; later episodes are
		// prepared here, outside the timed interval.
		err := tr.untimed(func() error {
			ep, err := in.prepare(tr)
			in.pending = append(in.pending, ep)
			return err
		})
		if err != nil {
			return err
		}
	}
	ep := in.pending[0]
	in.pending = in.pending[1:]
	first := t.attempted
	var last time.Time
	ep.onRound = func(int) error {
		now := time.Now()
		m.op(now.Sub(last))
		tr.add("traffic.round", t.attempted, last, now)
		t.attempted++
		last = now
		return nil
	}
	var rep *traffic.Report
	m.start()
	last = time.Now()
	err := tr.call("traffic.Run", first, func() (err error) {
		rep, err = ep.eng.Run(stormWindow)
		return err
	})
	m.stop()
	if err != nil {
		m.op(time.Since(last))
		t.attempted++
		opFailed(t, t.attempted-1, err)
		return nil
	}
	l := ledger{Backlog: rep.Backlog}
	for _, c := range rep.Clients {
		l.Offered += c.OfferedPackets
		l.Delivered += c.DeliveredPackets
		l.Failed += c.FailedPackets
		l.Dropped += c.DroppedPackets
	}
	t.deliveredBits += float64(8 * l.Delivered * experiment.PayloadBytes)
	t.storm.Offered += l.Offered
	t.storm.Delivered += l.Delivered
	t.storm.Failed += l.Failed
	t.storm.Dropped += l.Dropped
	t.storm.Backlog += l.Backlog
	if err := checkConservation(l); err != nil {
		return fmt.Errorf("episode %d: %w", ep.index, err)
	}
	if err := checkAllLive(ep.net.LiveAPs(), stormAPs); err != nil {
		return fmt.Errorf("episode %d: %w", ep.index, err)
	}
	return nil
}

func (in *stormInst) nets() []*core.Network { return in.topos }

// mcs is not exposed: the engine's scheduler keeps its probed rate private.
func (in *stormInst) mcs() []string { return nil }
