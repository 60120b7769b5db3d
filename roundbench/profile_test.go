package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"megamimo/internal/fec"
)

const mp = modulePrefix

func TestPackageAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{mp + "fec.(*Decoder).DecodeSoft", mp + "phy.(*RX).DecodeAt", "main.main"}, "fec"},
		{[]string{"runtime.memmove", mp + "cmplxs.Scale", mp + "air.(*Air).Observe"}, "cmplxs"},
		{[]string{"runtime.mallocgcSmallNoscan", "runtime.mallocgc", "runtime.makeslice", mp + "phy.(*RX).DecodeAt"}, "runtime.alloc"},
		{[]string{"runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", mp + "core.(*Network).Measure"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{mp + "experiment.MapNamed[go.shape.struct { megamimo/internal/x.y int }]"}, "other"},
		{[]string{mp + "units.DBToLinear", mp + "core.New"}, "other"},
		{[]string{"main.fill", "main.(*jointInst).round"}, "harness"},
		{[]string{"syscall.Syscall"}, "other"},
	}
	for _, c := range cases {
		if got := packageOf(c.stack); got != c.want {
			t.Errorf("packageOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestStageAttribution(t *testing.T) {
	jt := mp + "core.(*Network).JointTransmit"
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{mp + "fec.(*Decoder).DecodeSoft", mp + "phy.(*RX).DecodeAt", mp + "phy.(*RX).Decode", jt}, "viterbi"},
		{[]string{mp + "modulation.AppendSoftDemap", mp + "phy.(*RX).DecodeAt", jt}, "demap"},
		{[]string{mp + "dsp.ConvolveRotateAdd", mp + "air.(*Air).Observe", jt}, "air"},
		{[]string{mp + "air.(*Air).Observe", mp + "core.(*Network).slaveMeasureRatio", mp + "core.(*Network).postJointFrames", jt}, "air"},
		{[]string{mp + "sync.headerStrategy.Measure", mp + "core.(*Network).slaveMeasureRatio", jt}, "sync"},
		{[]string{mp + "ofdm.(*FFTPlan).Inverse", mp + "phy.(*TX).SynthesizeJointInto", mp + "core.(*Network).postJointFrames", jt}, "synthesis"},
		{[]string{mp + "fec.Encode", mp + "phy.(*TX).FrameSymbols", jt}, "synthesis"},
		{[]string{mp + "air.(*Air).Observe", mp + "core.(*Network).Measure"}, "measure"},
		{[]string{mp + "matrix.(*M).Inverse", mp + "core.(*ZFCache).entry", mp + "core.(*Network).Precode"}, "precode"},
		{[]string{mp + "matrix.(*M).Mul", mp + "core.(*Network).weightsForMask", mp + "core.(*Network).postJointFrames", jt, mp + "mac.(*Scheduler).Step"}, "precode"},
		{[]string{mp + "backend.(*Bus).Receive", mp + "mac.(*Scheduler).Step", mp + "traffic.(*Engine).loop"}, "mac"},
		{[]string{mp + "channel.(*Link).Evolve", mp + "core.(*Network).EvolveClientLinks"}, "other"},
	}
	for _, c := range cases {
		if got := stageOf(c.stack); got != c.want {
			t.Errorf("stageOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestParseRawProfile decodes a hand-written `go tool pprof -raw` text with
// an inlined frame, a generic function name holding spaces and two labels.
func TestParseRawProfile(t *testing.T) {
	text := `PeriodType: cpu nanoseconds
Period: 10000000
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 
                call:[core.Measure] phase:[untimed]
          1   10000000: 3 
Locations
     1: 0x55c2a4 M=1 megamimo/internal/dsp.Conv /src/dsp/dsp.go:10:0 s=9
             megamimo/internal/air.(*Air).Observe /src/air/air.go:20:0 s=19
     2: 0x55b9c4 M=1 [F] main.main /src/main.go:5:0 s=4
     3: 0x40efd7 M=1 megamimo/internal/experiment.MapNamed[go.shape.struct { X int }] /src/x.go:1:0 s=1
Mappings
1: 0x400000/0x62d000/0x0 /bin/roundbench  [FN]
`
	got, err := parseRawProfile(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []sample{
		{Stack: []string{mp + "dsp.Conv", mp + "air.(*Air).Observe", "main.main"}, CPUNs: 30000000,
			Labels: map[string]string{"call": "core.Measure", "phase": "untimed"}},
		{Stack: []string{mp + "experiment.MapNamed[go.shape.struct { X int }]"}, CPUNs: 10000000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseRawProfile:\n got %+v\nwant %+v", got, want)
	}
	if _, err := parseRawProfile(strings.Replace(text, "cpu/nanoseconds\n", "alloc_space/bytes\n", 1)); err == nil {
		t.Error("a profile without a CPU sample type parsed without error")
	}
}

// TestReadCPUProfile profiles real Viterbi decoding under a pprof label
// and checks the reader finds the samples, their stacks and the label.
func TestReadCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	llr := make([]float64, 2*8*1500+12)
	for i := range llr {
		llr[i] = float64(i%7) - 3
	}
	pprof.Do(context.Background(), pprof.Labels("call", "decode"), func(context.Context) {
		for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
			if _, err := fec.DecodeSoft(llr, 8*1500, fec.Rate12); err != nil {
				t.Error(err)
				return
			}
		}
	})
	pprof.StopCPUProfile()
	dir := t.TempDir()
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total, fecNs, labeled int64
	for _, s := range samples {
		total += s.CPUNs
		if packageOf(s.Stack) == "fec" {
			fecNs += s.CPUNs
		}
		if s.Labels["call"] == "decode" {
			labeled += s.CPUNs
		}
	}
	if total < int64(200*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU, want most of 400ms", time.Duration(total))
	}
	if fecNs < total/2 || labeled < total/2 {
		t.Errorf("fec %v and labeled %v of %v total; want each over half", time.Duration(fecNs), time.Duration(labeled), time.Duration(total))
	}
	truncated := filepath.Join(dir, "truncated.pprof")
	if err := os.WriteFile(truncated, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readCPUProfile(truncated); err == nil {
		t.Error("a truncated profile read without error")
	}
}
