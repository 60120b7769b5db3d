package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// sample is one CPU-profile sample.
type sample struct {
	// Stack lists function names from the leaf (index 0) to the root,
	// inlined frames expanded innermost first.
	Stack  []string
	CPUNs  int64
	Labels map[string]string
}

// readCPUProfile reads a CPU profile that runtime/pprof wrote to path,
// through the text that `go tool pprof -raw` prints of it.
func readCPUProfile(path string) ([]sample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			err = fmt.Errorf("%w: %s", err, strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	return parseRawProfile(string(out))
}

// parseRawProfile decodes `go tool pprof -raw` output. Its Samples section
// has one line per sample, "<count> <cpu ns>: <location ids>", each
// optionally followed by a line of labels "key:[value] ..."; its Locations
// section has "<id>: <address> M=<mapping> <function> <file:line:col>
// s=<start>", with one more indented "<function> ..." line per inlined
// frame, innermost first.
func parseRawProfile(text string) ([]sample, error) {
	type rawSample struct {
		cpuNs  int64
		locs   []int
		labels map[string]string
	}
	var (
		raws    []rawSample
		section string
		cpuType bool
		loc     int
		funcs   = map[int][]string{} // location id -> function names
	)
	for _, line := range strings.Split(text, "\n") {
		f := strings.TrimSpace(line)
		switch {
		case f == "":
			continue
		case line == "Samples:" || line == "Locations" || line == "Mappings":
			section = line
			continue
		}
		switch section {
		case "Samples:":
			if f == "samples/count cpu/nanoseconds" {
				cpuType = true
				continue
			}
			if strings.Contains(f, ":[") {
				if len(raws) == 0 {
					return nil, fmt.Errorf("profile: labels before any sample")
				}
				ls := map[string]string{}
				for _, kv := range strings.Fields(f) {
					k, v, _ := strings.Cut(kv, ":[")
					ls[k] = strings.TrimSuffix(v, "]")
				}
				raws[len(raws)-1].labels = ls
				continue
			}
			head, ids, ok := strings.Cut(f, ":")
			vals := strings.Fields(head)
			if !ok || len(vals) != 2 {
				return nil, fmt.Errorf("profile: sample line %q", f)
			}
			ns, err := strconv.ParseInt(vals[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("profile: sample line %q: %w", f, err)
			}
			rs := rawSample{cpuNs: ns}
			for _, id := range strings.Fields(ids) {
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("profile: sample line %q: %w", f, err)
				}
				rs.locs = append(rs.locs, n)
			}
			raws = append(raws, rs)
		case "Locations":
			fn := f
			if head, rest, ok := strings.Cut(f, ": 0x"); ok {
				id, err := strconv.Atoi(head)
				fields := strings.Fields(rest)
				if err != nil || len(fields) == 0 {
					return nil, fmt.Errorf("profile: location line %q", f)
				}
				loc = id
				// Drop the address, the mapping and the folded mark.
				fields = fields[1:]
				if len(fields) > 0 && strings.HasPrefix(fields[0], "M=") {
					fields = fields[1:]
				}
				if len(fields) > 0 && fields[0] == "[F]" {
					fields = fields[1:]
				}
				fn = strings.Join(fields, " ")
			}
			if fn == "" {
				continue
			}
			// The function name is all but the trailing "file:line:col s=start".
			if i := strings.LastIndex(fn, " s="); i >= 0 {
				fn = fn[:i]
			}
			if i := strings.LastIndex(fn, " "); i >= 0 {
				fn = fn[:i]
			}
			funcs[loc] = append(funcs[loc], fn)
		}
	}
	if !cpuType {
		return nil, fmt.Errorf("profile: no cpu/nanoseconds sample type (not a CPU profile)")
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		s := sample{CPUNs: rs.cpuNs, Labels: rs.labels}
		for _, l := range rs.locs {
			s.Stack = append(s.Stack, funcs[l]...)
		}
		out = append(out, s)
	}
	return out, nil
}

// modulePrefix is the import-path prefix of the program under test.
const modulePrefix = "megamimo/internal/"

// funcPackage returns the last element of a function's import path and
// whether the function belongs to the program (megamimo/internal/...) or
// to this harness (main).
func funcPackage(fn string) (pkg string, ours bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic type arguments may contain slashes
	}
	if rest, ok := strings.CutPrefix(fn, "main."); ok && rest != "" {
		return "harness", true
	}
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// gcFrames and allocFrames are the runtime functions whose samples the
// attribution charges to the garbage collector and to allocation, whatever
// megamimo frame sits above them.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.scanobject", "runtime.greyobject",
}

var allocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.newarray", "runtime.makemap",
	"runtime.rawbyteslice", "runtime.rawstring", "runtime.slicebytetostring",
}

// hasFrame reports whether any frame starts with one of the prefixes
// (runtime.gcDrain also covers gcDrainN, mallocgc covers mallocgcTiny...).
func hasFrame(stack []string, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// cpuPackages are the program's layers reported as <pkg>.cpu_ms_per_op.
// Samples whose innermost program frame lies in another megamimo package
// are charged to "other".
var cpuPackages = []string{
	"fec", "modulation", "phy", "ofdm", "interleave", "scramble", "air",
	"radio", "dsp", "cmplxs", "matrix", "core", "sync", "rng", "channel",
	"csi", "backend", "mac", "traffic", "fault",
}

// packageOf charges one sample's self time: GC frames to runtime.gc,
// allocation frames to runtime.alloc, otherwise the innermost frame of the
// program (or of the harness) names the layer.
func packageOf(stack []string) string {
	if hasFrame(stack, gcFrames) {
		return "runtime.gc"
	}
	if hasFrame(stack, allocFrames) {
		return "runtime.alloc"
	}
	for _, f := range stack {
		if pkg, ours := funcPackage(f); ours {
			for _, p := range cpuPackages {
				if p == pkg {
					return pkg
				}
			}
			if pkg == "harness" {
				return pkg
			}
			return "other"
		}
	}
	return "other"
}

// Stages of one downlink round, in the order the report lists them.
var stageNames = []string{"measure", "sync", "precode", "synthesis", "air", "demap", "viterbi", "mac", "other"}

// stageOf assigns a sample to a round stage. Measurement and precoding
// are whole phases: any sample under them belongs to them, air and
// arithmetic included. Inside a joint transmission the innermost stage
// anchor wins, so the air a client observes is "air" while the Viterbi
// its receiver runs is "viterbi". What the MAC, traffic, fault and backend
// layers do around a transmission is "mac".
func stageOf(stack []string) string {
	for _, f := range stack {
		if isMeasureFrame(f) {
			return "measure"
		}
	}
	for _, f := range stack {
		if isPrecodeFrame(f) {
			return "precode"
		}
	}
	for _, f := range stack { // leaf first: innermost anchor
		pkg, ours := funcPackage(f)
		if !ours {
			continue
		}
		switch {
		case pkg == "fec" && strings.Contains(f, "Decode"):
			return "viterbi"
		case pkg == "phy" && strings.Contains(f, "(*RX)"):
			return "demap"
		case pkg == "phy" && strings.Contains(f, "(*TX)"):
			return "synthesis"
		case pkg == "air":
			return "air"
		case pkg == "sync" || f == modulePrefix+"core.(*Network).slaveMeasureRatio":
			return "sync"
		case f == modulePrefix+"core.(*Network).postJointFrames" ||
			f == modulePrefix+"core.(*Network).JointTransmit":
			return "synthesis"
		}
	}
	for _, f := range stack {
		switch pkg, _ := funcPackage(f); pkg {
		case "mac", "traffic", "fault", "backend":
			return "mac"
		}
	}
	return "other"
}

func isMeasureFrame(f string) bool {
	return strings.HasPrefix(f, modulePrefix+"core.(*Network).Measure")
}

func isPrecodeFrame(f string) bool {
	for _, p := range []string{
		"core.(*Network).Precode", "core.(*Network).weightsForMask",
		"core.(*Network).SetPrecoder", "core.(*ZFCache)", "core.ComputeZF",
	} {
		if strings.HasPrefix(f, modulePrefix+p) {
			return true
		}
	}
	return false
}
