package main

import (
	"math"
	"testing"

	"megamimo/internal/core"
	"megamimo/internal/experiment"
	"megamimo/internal/phy"
	"megamimo/internal/traffic"
)

// Each check must accept the program's real output and reject the same
// output with one fault planted in it.

func smallNetwork(t *testing.T, aps int, lambda float64) (*core.Network, *core.Precoder) {
	t.Helper()
	pin()
	cfg := core.DefaultConfig(aps, aps, 18, 24)
	cfg.Seed = 5
	cfg.WellConditioned = true
	n, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Measure(); err != nil {
		t.Fatal(err)
	}
	pre, err := n.Precode(lambda)
	if err != nil {
		t.Fatal(err)
	}
	return n, pre
}

func TestPayloadCheckRejectsFlippedByte(t *testing.T) {
	n, _ := smallNetwork(t, 2, 0)
	payloads := payloadSet(2, 200)
	for j, p := range payloads {
		for i := range p {
			p[i] = byte(i*7 + j)
		}
	}
	res, err := n.JointTransmit(payloads, phy.MCS0)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for j, p := range payloads {
		f := res.Frames[j]
		if f == nil || !res.OK[j] {
			continue
		}
		if intact, err := streamIntact(p, f.Payload, true); !intact || err != nil {
			t.Fatalf("stream %d: delivered frame rejected: intact=%v err=%v", j, intact, err)
		}
		flipped := append([]byte(nil), f.Payload...)
		flipped[len(flipped)/2] ^= 0x01
		if _, err := streamIntact(p, flipped, true); err == nil {
			t.Errorf("stream %d: a flipped payload byte passed the check", j)
		}
		// Another stream's frame must not pass for this one.
		if _, err := streamIntact(payloads[1-j], f.Payload, true); err == nil {
			t.Errorf("stream %d: the other stream's bytes passed the check", j)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no stream delivered; nothing checked")
	}
	if intact, err := streamIntact(payloads[0], nil, false); intact || err != nil {
		t.Errorf("a lost stream must count as not intact without failing: intact=%v err=%v", intact, err)
	}
}

func precoderMats(n *core.Network, pre *core.Precoder) (h, w []cmat) {
	for _, x := range n.Msmt.H {
		h = append(h, cmat{x.Rows, x.Cols, x.Data})
	}
	for _, x := range pre.W {
		w = append(w, cmat{x.Rows, x.Cols, append([]complex128(nil), x.Data...)})
	}
	return h, w
}

func TestPrecoderCheckRejectsPerturbedWeight(t *testing.T) {
	for _, lambda := range []float64{0, 1e-3} {
		n, pre := smallNetwork(t, 4, lambda)
		h, w := precoderMats(n, pre)
		if err := checkPrecoder(h, w, pre.PowerScale, lambda); err != nil {
			t.Fatalf("λ=%g: the program's precoder was rejected: %v", lambda, err)
		}
		// One weight of one bin moves by 1% of the bin's largest weight.
		b := len(w) / 2
		w[b].data[5] += complex(0.01*maxAbs(w[b].data), 0)
		if err := checkPrecoder(h, w, pre.PowerScale, lambda); err == nil {
			t.Errorf("λ=%g: a perturbed precoder weight passed the check", lambda)
		}
	}
	// The regularized precoder is not the pure zero-forcing one: checking
	// it against λ = 0 must fail too.
	n, pre := smallNetwork(t, 4, 1e-3)
	h, w := precoderMats(n, pre)
	if err := checkPrecoder(h, w, pre.PowerScale, 0); err == nil {
		t.Error("a regularized precoder passed as pure zero-forcing")
	}
}

func TestPrecoderResidualOfExactZF(t *testing.T) {
	// H = diag(2, 4), λ = 0: W = k·H⁻¹ and H·W = k·I exactly.
	h := []cmat{{2, 2, []complex128{2, 0, 0, 4}}}
	w := []cmat{{2, 2, []complex128{0.25, 0, 0, 0.125}}}
	res, err := precoderResidual(h, w, 0.5, 0)
	if err != nil || res != 0 {
		t.Fatalf("residual %g, err %v; want 0", res, err)
	}
	if _, err := precoderResidual(h, w[:0], 0.5, 0); err == nil {
		t.Error("mismatched bin counts accepted")
	}
}

func TestConservationRejectsUnbalancedLedger(t *testing.T) {
	n, _ := smallNetwork(t, 3, 0)
	profiles := make([]traffic.Profile, n.NumStreams())
	for i := range profiles {
		profiles[i] = traffic.ProfileFor(traffic.Poisson, 12e6, experiment.PayloadBytes)
	}
	eng, err := traffic.New(n, traffic.Config{Profiles: profiles, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(0.004)
	if err != nil {
		t.Fatal(err)
	}
	l := ledger{Backlog: rep.Backlog}
	for _, c := range rep.Clients {
		l.Offered += c.OfferedPackets
		l.Delivered += c.DeliveredPackets
		l.Failed += c.FailedPackets
		l.Dropped += c.DroppedPackets
	}
	if l.Offered == 0 {
		t.Fatal("no demand offered; nothing checked")
	}
	if err := checkConservation(l); err != nil {
		t.Fatalf("the engine's own ledger was rejected: %v", err)
	}
	for _, mutate := range []func(*ledger){
		func(l *ledger) { l.Delivered++ },
		func(l *ledger) { l.Backlog-- },
		func(l *ledger) { l.Offered++ },
	} {
		bad := l
		mutate(&bad)
		if err := checkConservation(bad); err == nil {
			t.Errorf("unbalanced ledger %+v passed", bad)
		}
	}
	if err := checkAllLive(n.LiveAPs(), 3); err != nil {
		t.Errorf("all APs live, rejected: %v", err)
	}
	if err := n.CrashAP(1); err != nil {
		t.Fatal(err)
	}
	if err := checkAllLive(n.LiveAPs(), 3); err == nil {
		t.Error("a crashed AP passed the recovery check")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q2-5.5) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
}
