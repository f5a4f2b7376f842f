package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"oblidb/client"
)

// setupRounds is how many times a run starts a server and loads it; the
// reported set-up time is their median and the last server is measured.
const setupRounds = 5

// rounds is how many times the measurement alternates a closed-loop and
// an open-loop phase, and keptRounds how many of them the end-to-end
// metrics read: the ones in which the hypervisor stole the least CPU
// from the machine. Throughput is the mean of the kept rounds' rates and
// latency a median over windows of their samples, so a burst of host
// contention that covers less than half the run does not move a result.
const (
	rounds     = 10
	keptRounds = 5
)

// round is one closed-loop and one open-loop phase: the closed loop's
// rate, the open loop's latencies and send lags (ms, due order), and the
// share of the machine's CPU time stolen during the round.
type round struct {
	rate     float64
	lat, lag []float64
	steal    float64
}

// leastStolen returns the n rounds with the least steal, in run order.
func leastStolen(all []round, n int) []round {
	idx := make([]int, len(all))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return all[idx[a]].steal < all[idx[b]].steal })
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	out := make([]round, len(idx))
	for i, j := range idx {
		out[i] = all[j]
	}
	return out
}

// stmtTimeout bounds one statement, so a wedged server fails the run
// instead of hanging it.
const stmtTimeout = 30 * time.Second

// served is the outcome of the served measurement.
type served struct {
	out         result
	wrongDetail string
	// Readings the traced run turns into per-layer metrics.
	closed, open      phase
	lagP90Ms          float64
	admissionRejected float64 // over all rounds
	checkpoints       float64 // over all rounds
	rssPeakMb         float64 // VmHWM at the end of the run
	stealShare        float64 // machine CPU time stolen by the hypervisor, all rounds
}

// phase accumulates server counters and process readings over every
// round of one phase (closed- or open-loop).
type phase struct {
	elapsed                       time.Duration
	real, dummy, epochs, compiles float64
	serverCPUms, loadgenCPUms     float64
	reqBytes, respBytes           float64
	// waits is the server's epochs-waited histogram: cumulative
	// statement count by bucket upper bound, all statement kinds.
	waits map[float64]float64
}

// measure runs fn as one round of the phase and adds the server's
// counter deltas, both processes' CPU time and the client's bytes.
func (p *phase) measure(d *loadgen, pid int, fn func()) error {
	before, err := d.conns[0].ServerStats()
	if err != nil {
		return err
	}
	cpu0, self0, bytes0, t0 := procCPUms(pid), procCPUms(os.Getpid()), d.connBytes(), time.Now()
	fn()
	p.elapsed += time.Since(t0)
	bytes1, cpu1, self1 := d.connBytes(), procCPUms(pid), procCPUms(os.Getpid())
	after, err := d.conns[0].ServerStats()
	if err != nil {
		return err
	}
	p.real += float64(after.Real - before.Real)
	p.dummy += float64(after.Dummy - before.Dummy)
	p.epochs += float64(after.Epochs - before.Epochs)
	p.compiles += float64(after.PlanCompiles - before.PlanCompiles)
	p.serverCPUms += cpu1 - cpu0
	p.loadgenCPUms += self1 - self0
	p.reqBytes += bytes1[0] - bytes0[0]
	p.respBytes += bytes1[1] - bytes0[1]
	if p.waits == nil {
		p.waits = map[float64]float64{}
	}
	w0 := epochWaits(before)
	for bound, n := range epochWaits(after) {
		p.waits[bound] += n - w0[bound]
	}
	return nil
}

// waitsP50 is the median of the accumulated epochs-waited histogram: the
// upper bound of the bucket holding the middle statement.
func (p *phase) waitsP50() float64 {
	bounds := make([]float64, 0, len(p.waits))
	for b := range p.waits {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 {
		return 0
	}
	total := p.waits[bounds[len(bounds)-1]]
	for _, b := range bounds {
		if total > 0 && p.waits[b] >= total/2 {
			return b
		}
	}
	return 0
}

// epochWaits reads the server's oblidb_statement_latency_epochs
// histogram from a Stats snapshot, summed over statement kinds, as
// cumulative counts by bucket upper bound (+Inf included).
func epochWaits(st client.Stats) map[float64]float64 {
	var snap map[string]json.RawMessage
	if json.Unmarshal([]byte(st.MetricsJSON), &snap) != nil {
		return nil
	}
	var byKind map[string]struct {
		Buckets map[string]float64 `json:"buckets"`
	}
	if json.Unmarshal(snap["oblidb_statement_latency_epochs"], &byKind) != nil {
		return nil
	}
	out := map[float64]float64{}
	for _, h := range byKind {
		for bound, n := range h.Buckets {
			if b, err := strconv.ParseFloat(bound, 64); err == nil {
				out[b] += n
			}
		}
	}
	return out
}

// measure builds the server, sets it up setupRounds times, and runs a
// warm-up and then rounds of a closed-loop and an open-loop phase on
// the last one. With traced the set-up runs once: set-up time is an
// end-to-end metric.
func measure(e *env, sp spec, seed uint64, seconds int, traced bool) (*served, error) {
	bin, err := buildServer(e)
	if err != nil {
		return nil, err
	}
	nSetups := setupRounds
	if traced {
		nSetups = 1
	}
	var (
		srv    *srvProc
		wl     workload
		setups []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < nSetups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		wl = sp.make(seed)
		t0 := time.Now()
		srv, err = startServer(bin, sp, filepath.Join(e.tmp, fmt.Sprintf("server-%d", i)))
		if err != nil {
			return nil, err
		}
		if err := srv.load(wl); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d, err := newLoadgen(srv.addr, sp, wl)
	if err != nil {
		return nil, err
	}
	defer d.close()
	s := &served{}

	// 10% warm-up, then rounds of 40% closed loop and 50% open loop.
	total := time.Duration(seconds) * time.Second
	closedDur := total * 4 / 10 / rounds
	openDur := total / 2 / rounds
	d.closedLoop(total / 10)

	first, err := d.conns[0].ServerStats()
	if err != nil {
		return nil, err
	}
	steal0, ticks0 := hostSteal()
	rss := sampleRSS(srv.pid(), 100*time.Millisecond)
	var all []round
	for r := 0; r < rounds && err == nil; r++ {
		var rd round
		st0, tk0 := hostSteal()
		err = s.closed.measure(d, srv.pid(), func() {
			rd.rate = float64(d.closedLoop(closedDur)) / closedDur.Seconds()
		})
		if err == nil {
			err = s.open.measure(d, srv.pid(), func() { rd.lat, rd.lag = d.openLoop(sp.rate, openDur) })
		}
		if st1, tk1 := hostSteal(); tk1 > tk0 {
			rd.steal = (st1 - st0) / (tk1 - tk0)
		}
		all = append(all, rd)
	}
	rssMb := rss.stop()
	if err != nil {
		return nil, err
	}
	if steal1, ticks1 := hostSteal(); ticks1 > ticks0 {
		s.stealShare = (steal1 - steal0) / (ticks1 - ticks0)
	}
	var rates, lat, lag, roundSteal []float64
	for _, rd := range all {
		lag = append(lag, rd.lag...)
		roundSteal = append(roundSteal, rd.steal)
	}
	for _, rd := range leastStolen(all, keptRounds) {
		rates = append(rates, rd.rate)
		lat = append(lat, rd.lat...)
	}
	last, err := d.conns[0].ServerStats()
	if err != nil {
		return nil, err
	}
	s.admissionRejected = metricDelta(first, last, "oblidb_admission_rejected_total")
	s.checkpoints = float64(last.WalCheckpoints - first.WalCheckpoints)
	s.lagP90Ms = quantile(lag, 0.9)
	ok := succeeded(lat)

	verr := wl.verify(d.query)
	s.rssPeakMb = procStatusMb(srv.pid(), "VmHWM:")
	stopErr := srv.stop()
	srv = nil
	if stopErr != nil {
		return nil, stopErr
	}

	att, failed, wrong := d.attempted.Load(), d.failed.Load(), d.wrong.Load()
	s.wrongDetail = d.wrongDetail()
	// The final check counts as one more attempted operation.
	att++
	if verr != nil {
		failed++
		wrong++
		s.wrongDetail = "final check: " + verr.Error()
	}
	s.out = result{
		Correct: wrong == 0, Attempted: att, Failed: failed,
		Metrics: map[string]metric{
			"stmts_per_s":    {mean(rates), "stmt/s"},
			"latency_p50_ms": {windowQuantile(ok, 0.5), "ms"},
			"latency_p90_ms": {windowQuantile(ok, 0.9), "ms"},
			"setup_s":        {median(setups), "s"},
			"server_rss_mb":  {rssMb, "MiB"},
		},
	}
	fmt.Printf("%s: %d attempted, %d failed (%d wrong); setups %.3f s\n", sp.name, att, failed, wrong, setups)
	fmt.Printf("host steal per round %.3f (run %.3f); kept rounds' closed-loop rates %.1f stmt/s, open loop %d of %d stmts at %.0f/s\n",
		roundSteal, s.stealShare, rates, len(ok), len(lat), sp.rate)
	fmt.Print("open-loop latency deciles (ms):")
	for q := 1; q <= 9; q++ {
		fmt.Printf(" %.2f", quantile(ok, float64(q)/10))
	}
	fmt.Println()
	if len(ok) < 100 {
		return nil, fmt.Errorf("open loop completed %d statements; p90 needs at least 100", len(ok))
	}
	return s, nil
}

// succeeded keeps the latencies of the statements that succeeded.
func succeeded(lat []float64) []float64 {
	var ok []float64
	for _, l := range lat {
		if l >= 0 {
			ok = append(ok, l)
		}
	}
	return ok
}

// hostSteal reads the machine's CPU time stolen by the hypervisor and
// its total CPU time from /proc/stat, in clock ticks.
func hostSteal() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// rssSampler reads a process's resident set every interval.
type rssSampler struct {
	quit    chan struct{}
	done    chan struct{}
	samples []float64
}

// sampleRSS starts sampling pid's VmRSS; stop returns the median in MiB.
func sampleRSS(pid int, every time.Duration) *rssSampler {
	r := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb := procStatusMb(pid, "VmRSS:"); mb > 0 {
				r.samples = append(r.samples, mb)
			}
			select {
			case <-r.quit:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) stop() float64 {
	close(r.quit)
	<-r.done
	return median(r.samples)
}

// buildServer builds cmd/oblidb-server from the tree under test.
func buildServer(e *env) (string, error) {
	bin := filepath.Join(e.build, "oblidb-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/oblidb-server")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building oblidb-server: %v\n%s", err, out)
	}
	return bin, nil
}

// srvProc is a running oblidb-server process.
type srvProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited
}

// startServer starts the binary with the workload's flags on a free
// loopback port and waits until it accepts a connection.
func startServer(bin string, sp spec, dir string) (*srvProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := append([]string{"-addr", addr, "-quiet"}, sp.flags(filepath.Join(dir, "db.wal"))...)
	s := &srvProc{addr: addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stdout, s.cmd.Stderr = &s.stderr, &s.stderr
	// The server dies with the benchmark, even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting oblidb-server: %w", err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("oblidb-server exited at start: %v\n%s", s.err, s.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("oblidb-server did not listen on %s: %v", addr, err)
		}
	}
}

func (s *srvProc) pid() int { return s.cmd.Process.Pid }

// stop shuts the server down gracefully (SIGTERM), killing it if it has
// not exited within ten seconds, and waits for it.
func (s *srvProc) stop() error {
	select {
	case <-s.exited:
		return fmt.Errorf("oblidb-server exited early: %v\n%s", s.err, s.stderr.String())
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("oblidb-server ignored SIGTERM")
	}
}

// load runs the workload's DDL in order, then its load statements with
// several in flight, and waits for the last reply.
func (s *srvProc) load(wl workload) error {
	c, err := client.Dial(s.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	return runSetup(wl, 8, func(sql string) error {
		ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
		defer cancel()
		_, err := c.ExecContext(ctx, sql)
		return err
	})
}

// runSetup executes a workload's set-up statements through exec: DDL
// serially, then the load with up to inflight statements in flight
// (1 keeps the load order, and so the ORAM state, deterministic).
func runSetup(wl workload, inflight int, exec func(sql string) error) error {
	ddl, load := wl.setup()
	for _, q := range ddl {
		if err := exec(q); err != nil {
			return fmt.Errorf("set-up %q: %w", q, err)
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  atomic.Int64
	)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(load)); i = next.Add(1) - 1 {
				if err := exec(load[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("loading: %w", err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// loadgen is the load generator: at most two connections (no more than
// nproc), each multiplexing a window of requests.
type loadgen struct {
	wl    workload
	sp    spec
	conns []*client.Conn
	stmts [][]*client.Stmt // per connection, indexed like wl.prepared()
	next  atomic.Int64     // next statement id of the stream

	// traced, when set, receives each statement's send and reply times.
	traced func(s stmt, start, end time.Time)

	attempted, failed, wrong atomic.Int64
	mu                       sync.Mutex
	firstWrong               string
}

func newLoadgen(addr string, sp spec, wl workload) (*loadgen, error) {
	d := &loadgen{wl: wl, sp: sp}
	for i := 0; i < min(2, maxProcs()); i++ {
		c, err := client.Dial(addr)
		if err != nil {
			d.close()
			return nil, err
		}
		d.conns = append(d.conns, c)
		var sts []*client.Stmt
		for _, q := range wl.prepared() {
			st, err := c.Prepare(q)
			if err != nil {
				d.close()
				return nil, fmt.Errorf("preparing %q: %w", q, err)
			}
			sts = append(sts, st)
		}
		d.stmts = append(d.stmts, sts)
	}
	return d, nil
}

func (d *loadgen) close() {
	for _, c := range d.conns {
		c.Close()
	}
}

// do executes one statement on connection ci, checks the answer, and
// reports whether it succeeded.
func (d *loadgen) do(ci int, s stmt) bool {
	ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
	defer cancel()
	var (
		res *client.Result
		err error
	)
	start := time.Now()
	if s.prep >= 0 {
		res, err = d.stmts[ci][s.prep].ExecContext(ctx, s.args...)
	} else {
		res, err = d.conns[ci].ExecContext(ctx, s.sql)
	}
	if d.traced != nil {
		d.traced(s, start, time.Now())
	}
	d.attempted.Add(1)
	if err == nil {
		err = d.wl.check(s, res)
		if err != nil {
			d.wrong.Add(1)
			d.mu.Lock()
			if d.firstWrong == "" {
				d.firstWrong = fmt.Sprintf("statement %d (%s): %v", s.id, s.kind, err)
			}
			d.mu.Unlock()
		}
	}
	if err != nil {
		d.failed.Add(1)
		return false
	}
	return true
}

func (d *loadgen) wrongDetail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.firstWrong
}

// closedLoop keeps inFlight requests in flight on every connection for
// dur and returns how many statements succeeded within dur.
func (d *loadgen) closedLoop(dur time.Duration) int64 {
	var (
		wg   sync.WaitGroup
		done atomic.Int64
	)
	start := time.Now()
	for ci := range d.conns {
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for time.Since(start) < dur {
					id := d.next.Add(1) - 1
					if d.do(ci, d.wl.next(id)) && time.Since(start) < dur {
						done.Add(1)
					}
				}
			}(ci)
		}
	}
	wg.Wait()
	return done.Load()
}

// stream runs statements 0..n-1 of the stream with inFlight requests
// in flight on every connection.
func (d *loadgen) stream(n int64) {
	var wg sync.WaitGroup
	for ci := range d.conns {
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				for id := d.next.Add(1) - 1; id < n; id = d.next.Add(1) - 1 {
					d.do(ci, d.wl.next(id))
				}
			}(ci)
		}
	}
	wg.Wait()
}

// openLoop sends statements at a fixed rate for dur, spread round-robin
// over the connections, and returns each statement's latency timed from
// when it was due, in due order, and each send's lag behind its due time
// (both in ms). A failed statement has latency -1: it counts in failed.
func (d *loadgen) openLoop(rate float64, dur time.Duration) (lat, lag []float64) {
	n := int(rate * dur.Seconds())
	lat = make([]float64, n)
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lag = append(lag, ms(time.Since(due)))
		s := d.wl.next(d.next.Add(1) - 1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat[i] = -1
			if d.do(i%len(d.conns), s) {
				lat[i] = ms(time.Since(due))
			}
		}(i)
	}
	wg.Wait()
	return lat, lag
}

// latencyWindows is the most consecutive windows the open-loop samples
// are cut into; each keeps at least 100 samples, so its p90 has ten
// beyond it.
const latencyWindows = 32

// windowQuantile cuts the successful latencies, in due order, into up to
// latencyWindows windows of at least 100 samples and returns the median
// of the windows' q-quantiles, so a stall of the machine in one window
// does not move the result.
func windowQuantile(ok []float64, q float64) float64 {
	k := min(max(len(ok)/100, 1), latencyWindows)
	var qs []float64
	for w := 0; w < k; w++ {
		qs = append(qs, quantile(ok[w*len(ok)/k:(w+1)*len(ok)/k], q))
	}
	return median(qs)
}

// query runs a final-check statement on the first connection.
func (d *loadgen) query(sql string) (*client.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), stmtTimeout)
	defer cancel()
	return d.conns[0].ExecContext(ctx, sql)
}

// connBytes sums the connections' bytes written and read.
func (d *loadgen) connBytes() [2]float64 {
	var b [2]float64
	for _, c := range d.conns {
		st := c.Stats()
		b[0] += float64(st.BytesWritten)
		b[1] += float64(st.BytesRead)
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by the nearest-rank method.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// procCPUms reads a process's user+system CPU time from /proc, in ms.
func procCPUms(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks (100/s).
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// procStatusMb reads a size field of /proc/<pid>/status, such as
// "VmRSS:" or "VmHWM:", in MiB.
func procStatusMb(pid int, field string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// metricDelta is the growth of a counter in the servers' metrics
// snapshots between two Stats readings.
func metricDelta(before, after client.Stats, name string) float64 {
	return metricValue(after, name) - metricValue(before, name)
}

func metricValue(st client.Stats, name string) float64 {
	var snap map[string]json.RawMessage
	if json.Unmarshal([]byte(st.MetricsJSON), &snap) != nil {
		return 0
	}
	var v float64
	_ = json.Unmarshal(snap[name], &v)
	return v
}
