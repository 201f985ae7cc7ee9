package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scale fixes the size of every corpus and round. The numbers in
// fullScale are the benchmark; toyScale only exists for smoke_test.go.
type scale struct {
	importReps   int // import_grow: 18×reps files per round
	queryReps    int // query_hot: 18×reps runs in the database
	queryOps     int // query_hot: ops per round
	cliReps      int // cli_cold: 18×reps runs in the directory
	cliOps       int // cli_cold: ops per round
	serverReps   int // server_mixed: 18×reps b_eff_io runs on the server
	msgIters     int // server_mixed: msgSizes×iters rows per msgsweep run
	serverCycles int // server_mixed: cycles per client per round
	minRounds    int
	kernelShift  uint // refKernel does 1/2^kernelShift of its work
}

var (
	fullScale = scale{importReps: 84, queryReps: 70, queryOps: 36, cliReps: 56, cliOps: 18,
		serverReps: 56, msgIters: 1000, serverCycles: 10, minRounds: 3}
	toyScale = scale{importReps: 2, queryReps: 2, queryOps: 4, cliReps: 2, cliOps: 3,
		serverReps: 2, msgIters: 10, serverCycles: 2, minRounds: 1, kernelShift: 5}
)

// setupReps is how often the set-up is repeated in one run; setup_s is
// the median, which a single slow start cannot move.
const setupReps = 3

// env is what a workload is built from.
type env struct {
	seed int64
	dir  string // scratch directory, emptied by the caller
	sc   scale
}

// workload is one closed-loop, fixed-work traffic mix. A round is the
// same op sequence every time, on every commit.
type workload interface {
	// setup generates the corpus, builds the database state, verifies
	// every query parameterisation against the oracle and warms up.
	setup() error
	// attach opens the sessions the clients hold through st (one stack
	// per client), closing the ones they held before.
	attach(st []stack) error
	// round runs the op sequence once and returns its wall time.
	round() (time.Duration, error)
	// check verifies what the round left behind and restores the state
	// the next round starts from. It is not timed.
	check() error
	// finish verifies the end state, closes everything and fills sizes.
	finish() error
	common() *base
}

// base is the state the harness reads from every workload.
type base struct {
	env
	clients   []*client
	tailPct   float64 // percentile of op_tail_ms
	liveHeap  uint64  // bytes, at the end of the last round before closing anything
	diskBytes int64   // database directory after the final checkpoint
	userBytes int64   // raw output files imported into it
	checksBad int     // failed state checks (not ops)
	dbDir     string  // database directory, for the traced run's probes
}

func (b *base) common() *base { return b }

// bad records a failed state check.
func (b *base) bad(format string, args ...any) {
	b.checksBad++
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// client is one closed-loop caller: it sends its next op only when the
// previous one has returned.
type client struct {
	st     stack
	lat    []time.Duration // op latencies of the current round
	failed int
	err    error // first failure, for the log
}

func (c *client) fail(err error) {
	c.failed++
	if c.err == nil {
		c.err = err
	}
}

// op runs and times one operation; verify (not timed) judges its output.
func (c *client) op(run func() error, verify func() error) {
	c.st.beginOp()
	t0 := time.Now()
	err := run()
	d := time.Since(t0)
	c.st.endOp()
	c.lat = append(c.lat, d)
	if err == nil && verify != nil {
		err = verify()
	}
	if err != nil {
		c.fail(err)
	}
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{st: plainStack{}}
	}
	return cs
}

func plainStacks(n int) []stack {
	st := make([]stack, n)
	for i := range st {
		st[i] = plainStack{}
	}
	return st
}

// measureHeap returns the live heap: HeapAlloc after two forced
// collections (the second frees what finalizers of the first released).
func measureHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// refKernelNominal is what refKernel takes on the quiet reference box.
// Timings are reported at that speed: measured × nominal ÷ the kernel
// time measured around the same round or set-up.
const refKernelNominal = 100 * time.Millisecond

// refNode is one 64-byte link of the chain refKernel chases.
type refNode struct {
	next *refNode
	_    [7]uint64
}

var refSink int

// refKernel times a fixed piece of pure Go shaped like the system's own
// work: small allocations, formatting and parsing numbers, grouping in a
// map, sorting, and a scattered pointer chase through 16 MB of fresh
// memory (what a collector's mark phase does). On a shared host the speed
// of such code drifts by tens of per cent within minutes, while
// compute-bound code (a sha256 loop) does not move at all; run beside
// every round it tells the host's share of a timing from the commit's.
// The collector is off while it runs, so that its time does not depend on
// the heap the system under test holds. shift scales the work down for the
// smoke test; the benchmark runs it whole (shift 0).
func refKernel(shift uint) time.Duration {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	lines := make([]string, 0, 40000>>shift)
	for i := 0; i < cap(lines); i++ {
		buf := make([]byte, 0, 64)
		buf = append(buf, 'k')
		buf = strconv.AppendUint(buf, next()%512, 10)
		for j := 0; j < 5; j++ {
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, float64(next()%100000)/97, 'f', 3, 64)
		}
		lines = append(lines, string(buf))
	}
	groups := map[string][]float64{}
	for _, l := range lines {
		f := strings.Fields(l)
		for _, s := range f[1:] {
			v, _ := strconv.ParseFloat(s, 64)
			groups[f[0]] = append(groups[f[0]], v)
		}
	}
	keys := make([]string, 0, len(groups))
	for k, vals := range groups {
		sort.Float64s(vals)
		keys = append(keys, k)
	}
	sort.Strings(keys)

	n, step := 1<<18>>shift, 100003 // step is odd: one cycle through all nodes
	nodes := make([]refNode, n)
	for i, at := 0, 0; i < n; i++ {
		to := (at + step) & (n - 1)
		nodes[at].next = &nodes[to]
		at = to
	}
	p := &nodes[0]
	for i := 0; i < 2*n; i++ {
		p = p.next
	}
	if p == &nodes[0] {
		refSink = len(keys)
	}
	return time.Since(t0)
}

// atRefSpeed runs f between two kernel runs and returns the host's speed
// around it: nominal ÷ the mean of the two kernel times.
func atRefSpeed(sc scale, f func() error) (speed float64, err error) {
	kernel := refKernel(sc.kernelShift)
	err = f()
	kernel = (kernel + refKernel(sc.kernelShift)) / 2
	return float64(refKernelNominal) / float64(kernel), err
}

// roundStat is what one round contributed.
type roundStat struct {
	ops     int
	wall    time.Duration
	p50     time.Duration
	tail    time.Duration
	opsPerS float64
	speed   float64 // of the host around this round
	heap    uint64  // live heap at its end
}

// phase accumulates rounds of one stack (untraced or traced).
type phase struct {
	rounds     []roundStat
	lat        []time.Duration // pooled over rounds
	ops        int
	failed     int
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
	cpu        time.Duration
}

// runRound runs one round of w and folds it into ph.
func (ph *phase) runRound(w workload) error {
	b := w.common()
	for _, c := range b.clients {
		c.lat = c.lat[:0]
	}
	var wall time.Duration
	speed, err := atRefSpeed(b.sc, func() (err error) {
		runtime.GC() // every round starts from a collected heap
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuTime()
		wall, err = w.round()
		ph.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		ph.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		ph.allocs += m1.Mallocs - m0.Mallocs
		ph.gcCycles += m1.NumGC - m0.NumGC
		ph.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		return err
	})
	if err != nil {
		return err
	}
	var lat []time.Duration
	for _, c := range b.clients {
		lat = append(lat, c.lat...)
		ph.failed += c.failed
		c.failed = 0
	}
	if err := w.check(); err != nil {
		return err
	}
	ph.rounds = append(ph.rounds, roundStat{ops: len(lat), wall: wall, p50: percentile(lat, 50),
		tail: percentile(lat, b.tailPct), opsPerS: float64(len(lat)) / wall.Seconds(), speed: speed, heap: b.liveHeap})
	ph.lat = append(ph.lat, lat...)
	ph.ops += len(lat)
	return nil
}

// runFor runs rounds until d has passed, and at least min rounds.
func (ph *phase) runFor(w workload, d time.Duration, min int) error {
	start := time.Now()
	for len(ph.rounds) < min || time.Since(start) < d {
		if err := ph.runRound(w); err != nil {
			return err
		}
	}
	return nil
}

// median returns the median over rounds of f.
func (ph *phase) median(f func(roundStat) float64) float64 {
	xs := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		xs[i] = f(r)
	}
	return medianF(xs)
}

// The three timings as measured …
func (ph *phase) rawOpsPerS() float64 {
	return ph.median(func(r roundStat) float64 { return r.opsPerS })
}
func (ph *phase) rawP50() float64  { return ph.median(func(r roundStat) float64 { return ms(r.p50) }) }
func (ph *phase) rawTail() float64 { return ph.median(func(r roundStat) float64 { return ms(r.tail) }) }

// … and at reference speed, each round by its own kernel time.
func (ph *phase) opsPerS() float64 {
	return ph.median(func(r roundStat) float64 { return r.opsPerS / r.speed })
}
func (ph *phase) p50() float64 {
	return ph.median(func(r roundStat) float64 { return ms(r.p50) * r.speed })
}
func (ph *phase) tail() float64 {
	return ph.median(func(r roundStat) float64 { return ms(r.tail) * r.speed })
}

// roundSpread is (max−min)/median of the per-round throughput as measured.
func (ph *phase) roundSpread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range ph.rounds {
		lo, hi = math.Min(lo, r.opsPerS), math.Max(hi, r.opsPerS)
	}
	return (hi - lo) / ph.rawOpsPerS()
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// newWorkload builds the named workload in a fresh directory.
func newWorkload(name string, e env) (workload, error) {
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		return nil, err
	}
	switch name {
	case "import_grow":
		return newImportGrow(e), nil
	case "query_hot":
		return newQueryHot(e), nil
	case "cli_cold":
		return newCLICold(e), nil
	case "server_mixed":
		return newServerMixed(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var workloadNames = []string{"import_grow", "query_hot", "cli_cold", "server_mixed"}

// setUp sets the workload up reps times and returns the last instance,
// ready to measure, with the median set-up time at reference speed.
func setUp(name string, e env, reps int, logf func(string, ...any)) (workload, float64, error) {
	var w workload
	var secs []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.finish(); err != nil {
				return nil, 0, err
			}
		}
		var wall time.Duration
		speed, err := atRefSpeed(e.sc, func() (err error) {
			t0 := time.Now()
			if w, err = newWorkload(name, e); err == nil {
				err = w.setup()
			}
			wall = time.Since(t0)
			return err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", name, err)
		}
		logf("%s: set-up %d: %.3f s (speed %.3f)", name, i+1, wall.Seconds(), speed)
		secs = append(secs, wall.Seconds()*speed)
	}
	return w, medianF(secs), nil
}

// runEndToEnd measures the end-to-end metrics of one workload with the
// untraced stack.
func runEndToEnd(name string, e env, seconds float64, logf func(string, ...any)) (*outcome, error) {
	w, setup, err := setUp(name, e, setupReps, logf)
	if err != nil {
		return nil, err
	}
	var ph phase
	if err := ph.runFor(w, time.Duration(seconds*float64(time.Second)), e.sc.minRounds); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := w.finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b := w.common()
	for _, c := range b.clients {
		if c.err != nil {
			logf("%s: first failed op: %v", name, c.err)
		}
	}
	for i, r := range ph.rounds {
		logf("%s: round %d: %d ops in %.3f s, %.2f ops/s, p50 %.3f ms, p%.0f %.3f ms (speed %.3f)",
			name, i+1, r.ops, r.wall.Seconds(), r.opsPerS, ms(r.p50), b.tailPct, ms(r.tail), r.speed)
	}
	logf("%s: %d rounds, %d ops, as measured: %.2f ops/s, p50 %.3f ms, p%.0f %.3f ms, round spread %.3f", name,
		len(ph.rounds), ph.ops, ph.rawOpsPerS(), ph.rawP50(), b.tailPct, ph.rawTail(), ph.roundSpread())
	// The heap is read after a fixed round, so that it does not depend on
	// how many rounds the host got through. cli_cold holds nothing between
	// ops; it measures inside one more invocation when it finishes.
	heap := ph.rounds[e.sc.minRounds-1].heap
	if heap == 0 {
		heap = b.liveHeap
	}
	ops := float64(ph.ops)
	return &outcome{
		Correct:   ph.failed == 0 && b.checksBad == 0,
		Attempted: ph.ops,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":                  {setup, "s"},
			"ops_per_s":                {ph.opsPerS(), "1/s"},
			"op_p50_ms":                {ph.p50(), "ms"},
			"op_tail_ms":               {ph.tail(), "ms"},
			"alloc_kb_per_op":          {float64(ph.allocBytes) / 1024 / ops, "KiB"},
			"allocs_per_op":            {float64(ph.allocs) / ops, "count"},
			"live_heap_mb":             {float64(heap) / (1 << 20), "MiB"},
			"disk_bytes_per_user_byte": {float64(b.diskBytes) / float64(b.userBytes), "ratio"},
		},
	}, nil
}
