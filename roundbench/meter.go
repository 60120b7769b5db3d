package main

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// meter accumulates what the end-to-end metrics need over the timed
// intervals of a run: wall time, process CPU time (getrusage), heap bytes
// and objects allocated, GC cycles and pause, and each operation's wall
// time. A joint-10ap round is one interval; refresh-10ap times each
// operation and leaves the link restore and the precoder checks out; the
// demand storm times one interval per episode and leaves the engine
// preparation between episodes out.
type meter struct {
	opMs []float64

	wall               time.Duration
	cpu                time.Duration
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration

	running  bool
	t0       time.Time
	cpu0     time.Duration
	mem0     runtime.MemStats
	deadline time.Duration
}

// processCPU returns the user+system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (ru_maxrss, which Linux
// reports in KiB and which equals /proc's VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = processCPU()
	m.t0 = time.Now()
	m.running = true
}

func (m *meter) stop() {
	m.wall += time.Since(m.t0)
	m.cpu += processCPU() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.allocBytes += ms.TotalAlloc - m.mem0.TotalAlloc
	m.allocs += ms.Mallocs - m.mem0.Mallocs
	m.gcCycles += ms.NumGC - m.mem0.NumGC
	m.gcPause += time.Duration(ms.PauseTotalNs - m.mem0.PauseTotalNs)
	m.running = false
}

// elapsed is the timed wall time so far, the running interval included.
func (m *meter) elapsed() time.Duration {
	if m.running {
		return m.wall + time.Since(m.t0)
	}
	return m.wall
}

func (m *meter) expired() bool { return m.elapsed() >= m.deadline }

func (m *meter) op(d time.Duration) { m.opMs = append(m.opMs, float64(d)/1e6) }

// percentile returns the p-th percentile (0–100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// span is one timed call the harness made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Name   string `json:"name"`
	Op     int    `json:"op"` // operation index; -1 during set-up
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans in memory and sets pprof labels around the calls it
// wraps. A nil *tracer is the untraced run: it records nothing and labels
// nothing, so the end-to-end run pays only a nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	ctx   context.Context // labels of the innermost wrapped call
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ctx: context.Background()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent(), Name: name, Op: op, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span whose bounds the caller measured itself (a traffic
// service round, delimited by consecutive OnRound callbacks).
func (t *tracer) add(name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: t.parent(), Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
}

// call wraps one public call of the program: a span named name and, in
// the traced run, the pprof label call=name on every CPU sample taken
// while it runs.
func (t *tracer) call(name string, op int, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.begin(name, op)
	err := t.labeled(pprof.Labels("call", name), f)
	t.end(id)
	return err
}

// untimed runs f with the label phase=untimed, which the layer attribution
// leaves out: the demand storm's preparation between timed episodes.
func (t *tracer) untimed(f func() error) error {
	if t == nil {
		return f()
	}
	return t.labeled(pprof.Labels("phase", "untimed"), f)
}

// labeled runs f under the current labels plus ls; nested calls inherit
// the outer labels and restore them on return.
func (t *tracer) labeled(ls pprof.LabelSet, f func() error) error {
	outer := t.ctx
	var err error
	pprof.Do(outer, ls, func(ctx context.Context) {
		t.ctx = ctx
		err = f()
	})
	t.ctx = outer
	return err
}
