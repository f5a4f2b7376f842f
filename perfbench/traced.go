package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oblidb/client"
	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/server"
	"oblidb/internal/sql"
	"oblidb/internal/table"
	"oblidb/internal/wal"
	"oblidb/internal/wire"
)

// kinds are the statement kinds the workloads send; exec.us.<kind> is
// reported for each, zero on workloads that do not send it.
var kinds = []string{"q1", "q2", "q3", "get", "upd", "ins", "del", "cnt"}

// pickNames are the planner.picks.<kind>.<alg> metrics: the operator
// choices the workloads make at the seed commit. Any other choice is
// tallied in planner.picks.other, so a plan flip shows as this set
// losing counts to it.
var pickNames = []string{
	"planner.picks.q1.select.Small", "planner.picks.q3.select.Small", "planner.picks.q3.join.Hash",
	"planner.picks.get.select.Small",
}

// --- span collector -------------------------------------------------------

// span is one timed call at a layer boundary. Spans of one statement
// share stmt; parent is the id of the span that caused it (-1: none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Stmt   int64  `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// collector keeps spans in memory until the run ends. It is local to
// the benchmark: wall-clock detail never enters the server's metrics
// registry, which holds counts only.
type collector struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newCollector() *collector { return &collector{t0: time.Now()} }

// add records a span while the collector is on and returns its id (-1
// when off).
func (c *collector) add(name string, parent int, stmt int64, start, end time.Time) int {
	if c == nil || !c.on.Load() {
		return -1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.spans)
	c.spans = append(c.spans, span{ID: id, Parent: parent, Name: name, Stmt: stmt,
		Start: start.Sub(c.t0).Nanoseconds(), End: end.Sub(c.t0).Nanoseconds()})
	return id
}

// total sums the durations of the spans named name, in ns.
func (c *collector) total(name string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ns int64
	for _, s := range c.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns)
}

// --- layer wrappers -------------------------------------------------------

// tracedListener times every server-side socket read and write.
type tracedListener struct {
	net.Listener
	c *collector
}

func (l tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{conn, l.c}, nil
}

type tracedConn struct {
	net.Conn
	c *collector
}

func (t tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := t.Conn.Read(p)
	t.c.add("net.read", -1, -1, start, time.Now())
	return n, err
}

func (t tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.Conn.Write(p)
	t.c.add("net.write", -1, -1, start, time.Now())
	return n, err
}

// journal is a wal.Log whose files go through walFile, which counts and
// times their writes and syncs. cur and parent name the statement and
// span the writes belong to (-1: unknown).
type journal struct {
	log             *wal.Log
	c               *collector
	cur, parent     atomic.Int64
	bytes, syncs    atomic.Uint64
	writeNs, syncNs atomic.Int64
}

type walFile struct {
	*os.File
	j *journal
}

func (f walFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.File.WriteAt(p, off)
	end := time.Now()
	f.j.bytes.Add(uint64(n))
	f.j.writeNs.Add(end.Sub(start).Nanoseconds())
	f.j.c.add("wal.write", int(f.j.parent.Load()), f.j.cur.Load(), start, end)
	return n, err
}

func (f walFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.j.syncs.Add(1)
	f.j.syncNs.Add(end.Sub(start).Nanoseconds())
	f.j.c.add("wal.sync", int(f.j.parent.Load()), f.j.cur.Load(), start, end)
	return err
}

// openJournal opens a fresh journal in dir with the workload's sync and
// checkpoint settings.
func openJournal(dir string, sp spec, c *collector) (*journal, error) {
	j := &journal{c: c}
	j.cur.Store(-1)
	j.parent.Store(-1)
	opts := wal.Options{
		Sync: true, AutoCheckpointBytes: sp.checkpointBytes,
		OpenFile: func(p string) (wal.File, error) {
			f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o600)
			if err != nil {
				return nil, err
			}
			return walFile{File: f, j: j}, nil
		},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := wal.Open(filepath.Join(dir, "db.wal"), crypt.NewRandomKey(), opts)
	if err != nil {
		return nil, err
	}
	j.log = l
	return j, nil
}

// faultCounter is an enclave.FaultInjector that never fails: it counts
// untrusted-memory block accesses.
type faultCounter struct{ reads, writes atomic.Uint64 }

func (f *faultCounter) Access(write bool) error {
	if write {
		f.writes.Add(1)
	} else {
		f.reads.Add(1)
	}
	return nil
}

// --- traced run -----------------------------------------------------------

// traceRun runs one in-process served pass and three serial replays of
// the workload's first sp.replay statements, and returns every
// per-layer metric, combining them with the served run's counts. It
// fails if two traced replays disagree on any count.
func traceRun(e *env, sp spec, seed uint64, s *served) (map[string]metric, error) {
	col := newCollector()
	netWriteNs, err := servedPass(e, sp, seed, col)
	if err != nil {
		return nil, fmt.Errorf("traced served pass: %w", err)
	}
	roots := map[int64]int{}
	for _, sn := range col.spans {
		if sn.Name == "client.exec" {
			roots[sn.Stmt] = sn.ID
		}
	}
	r1, err := replay(e, sp, seed, col, roots, false)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	r2, err := replay(e, sp, seed, nil, nil, false)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	r3, err := replay(e, sp, seed, newCollector(), nil, true)
	if err != nil {
		return nil, fmt.Errorf("second traced replay: %w", err)
	}
	if err := sameCounts(r1.counts, r3.counts); err != nil {
		return nil, fmt.Errorf("count metrics did not repeat across two traced replays: %w", err)
	}
	if err := writeSpans(e, sp, seed, col); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	n := float64(sp.replay)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// server: counts from the real binary's closed-loop rounds.
	c := s.closed
	m["server.occupancy"] = metric{ratio(c.real, c.real+c.dummy), "ratio"}
	m["server.epoch_ms"] = metric{ratio(ms(c.elapsed), c.epochs), "ms"}
	m["server.wait_epochs_p50"] = metric{s.open.waitsP50(), "epochs"}
	m["server.dummy_us"] = metric{r1.dummyUs, "us"}
	m["server.admission_rejected"] = metric{s.admissionRejected, "count"}
	m["server.cpu_ms_per_stmt"] = metric{ratio(c.serverCPUms, c.real), "ms"}
	m["server.rss_peak_mb"] = metric{s.rssPeakMb, "MiB"}

	// sql and planner.
	m["sql.compiles_per_stmt"] = metric{ratio(c.compiles, c.real), "count"}
	m["sql.prepare_us"] = metric{r1.prepareNs / n / 1e3, "us"}
	for _, name := range pickNames {
		m[name] = metric{ratio(float64(r1.counts[name]), float64(r1.perKind[kindOf(name)])), "count"}
	}
	m["planner.picks.other"] = metric{ratio(float64(r1.counts["planner.picks.other"]), n), "count"}

	// exec.
	for _, k := range kinds {
		m["exec.us."+k] = metric{median(r1.execNs[k]) / 1e3, "us"}
	}
	m["exec.allocs_per_stmt"] = metric{r3.allocs / n, "count"}
	m["exec.alloc_kb_per_stmt"] = metric{r3.allocBytes / n / 1024, "KiB"}

	// enclave and crypt, at the workload's block size.
	sealNs, openNs := sealCost(r1.blockSize, 9, 100)
	opened, sealed := float64(r1.counts["enclave.blocks_opened"]), float64(r1.counts["enclave.blocks_sealed"])
	m["enclave.blocks_opened_per_stmt"] = metric{opened / n, "count"}
	m["enclave.blocks_sealed_per_stmt"] = metric{sealed / n, "count"}
	m["enclave.open_ns_per_block"] = metric{openNs, "ns"}
	m["enclave.seal_ns_per_block"] = metric{sealNs, "ns"}
	m["enclave.crypt_share"] = metric{ratio(opened*openNs+sealed*sealNs, r1.execTotalNs), "ratio"}

	// storage.
	m["storage.untrusted_bytes_per_user_byte"] = metric{r1.untrustedPerUser, "ratio"}

	// wal: counts from the replay, checkpoints from the served window.
	commits := float64(r1.counts["wal.commits"])
	m["wal.commits_per_write"] = metric{ratio(commits, r1.writes), "count"}
	m["wal.bytes_per_user_byte"] = metric{ratio(float64(r1.counts["wal.bytes"]), r1.userBytes), "ratio"}
	m["wal.checkpoints"] = metric{s.checkpoints, "count"}
	m["wal.write_us_per_commit"] = metric{ratio(r1.walWriteNs, commits) / 1e3, "us"}
	m["wal.sync_us_per_commit"] = metric{ratio(r1.walSyncNs, commits) / 1e3, "us"}
	m["wal.syncs_per_write"] = metric{ratio(float64(r1.counts["wal.syncs"]), r1.writes), "count"}

	// wire and client.
	m["wire.req_bytes_per_stmt"] = metric{ratio(c.reqBytes, c.real), "B"}
	m["wire.resp_bytes_per_stmt"] = metric{ratio(c.respBytes, c.real), "B"}
	m["wire.codec_us_per_stmt"] = metric{r1.codecNs / n / 1e3, "us"}
	m["net.write_us_per_stmt"] = metric{netWriteNs / n / 1e3, "us"}

	// benchmark validity.
	m["loadgen.lag_ms_p90"] = metric{s.lagP90Ms, "ms"}
	m["loadgen.cpu_share"] = metric{ratio(c.loadgenCPUms, c.loadgenCPUms+c.serverCPUms), "ratio"}
	m["trace.overhead_share"] = metric{ratio(r1.loopNs-r2.loopNs, r2.loopNs), "ratio"}
	m["failed_share"] = metric{ratio(float64(s.out.Failed), float64(s.out.Attempted)), "ratio"}
	m["host.steal_share"] = metric{s.stealShare, "ratio"}
	return m, nil
}

// kindOf extracts the statement kind from a planner.picks.<kind>.<alg>
// metric name.
func kindOf(name string) string {
	return strings.SplitN(strings.TrimPrefix(name, "planner.picks."), ".", 2)[0]
}

// servedPass serves the workload in process (server.New and Serve on a
// traced listener, a journal on a traced file, a counting fault
// injector), loads it over the client, and runs the first sp.replay
// statements with a client.exec root span each. It returns the time
// the server spent in socket writes while the statements ran, in ns.
func servedPass(e *env, sp spec, seed uint64, col *collector) (float64, error) {
	cfg := server.Config{
		Engine:    core.Config{Parallelism: 1, Seed: seed, Fault: &faultCounter{}},
		EpochSize: epochSize, EpochInterval: epochIntervalDur, Workers: 1,
	}
	var j *journal
	if sp.wal() {
		var err error
		if j, err = openJournal(filepath.Join(e.tmp, "served-pass"), sp, col); err != nil {
			return 0, err
		}
		defer j.log.Close()
		cfg.WAL = j.log
	}
	srv, err := server.New(cfg)
	if err != nil {
		return 0, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return 0, err
	}
	serving := make(chan struct{})
	go func() {
		defer close(serving)
		_ = srv.Serve(tracedListener{lis, col}) // returns once Close stops it
	}()
	defer func() {
		srv.Close()
		<-serving
	}()

	wl := sp.make(seed)
	c, err := client.Dial(lis.Addr().String())
	if err != nil {
		return 0, err
	}
	err = runSetup(wl, 8, func(q string) error { _, err := c.Exec(q); return err })
	c.Close()
	if err != nil {
		return 0, err
	}
	d, err := newLoadgen(lis.Addr().String(), sp, wl)
	if err != nil {
		return 0, err
	}
	defer d.close()
	d.traced = func(s stmt, start, end time.Time) { col.add("client.exec", -1, s.id, start, end) }
	col.on.Store(true)
	d.stream(int64(sp.replay))
	col.on.Store(false)
	if w := d.wrong.Load(); w > 0 || d.failed.Load() > 0 {
		return 0, fmt.Errorf("%d failed, %d wrong: %s", d.failed.Load(), w, d.wrongDetail())
	}
	if err := wl.verify(d.query); err != nil {
		return 0, err
	}
	return col.total("net.write"), nil
}

// replayed is what one serial replay measured.
type replayed struct {
	counts  map[string]uint64 // exact counts, compared across replays
	perKind map[string]uint64 // statements per kind
	execNs  map[string][]float64

	loopNs, execTotalNs, prepareNs, codecNs float64
	walWriteNs, walSyncNs                   float64
	writes, userBytes                       float64
	allocs, allocBytes                      float64
	dummyUs, untrustedPerUser               float64
	blockSize                               int
}

// replay runs the workload's first sp.replay statements serially into
// sql.New(core.Open(cfg)): wire request encode/decode, prepare, execute,
// wire response encode/decode, answer check. With col it records spans
// under each statement's client.exec root (from roots), per-layer times
// and planner picks; without, it records none of them, and its loop
// time is the base of the tracing overhead. With allocs it reads the
// heap counters around each execution.
func replay(e *env, sp spec, seed uint64, col *collector, roots map[int64]int, allocs bool) (*replayed, error) {
	fc := &faultCounter{}
	db, err := core.Open(core.Config{Parallelism: 1, Seed: seed, Fault: fc})
	if err != nil {
		return nil, err
	}
	x := sql.New(db)
	wl := sp.make(seed)
	if err := runSetup(wl, 1, func(q string) error { _, err := x.Execute(q); return err }); err != nil {
		return nil, err
	}
	for _, q := range []string{"CREATE TABLE oblidb_pad (k INTEGER)", "INSERT INTO oblidb_pad VALUES (0)"} {
		if _, err := x.Execute(q); err != nil {
			return nil, err
		}
	}
	var j *journal
	if sp.wal() {
		dir, err := os.MkdirTemp(e.tmp, "replay-")
		if err != nil {
			return nil, err
		}
		if j, err = openJournal(dir, sp, col); err != nil {
			return nil, err
		}
		defer j.log.Close()
		if err := db.AttachWAL(j.log); err != nil {
			return nil, err
		}
	}
	r := &replayed{counts: map[string]uint64{}, perKind: map[string]uint64{}, execNs: map[string][]float64{}}
	var preps []*sql.Prepared
	t := time.Now()
	for _, q := range wl.prepared() {
		p, err := x.Prepare(q)
		if err != nil {
			return nil, err
		}
		preps = append(preps, p)
	}
	r.prepareNs = float64(time.Since(t).Nanoseconds())

	io0, cs0 := db.IOStats(), x.CacheStats()
	reads0, writes0 := fc.reads.Load(), fc.writes.Load()
	var commits0, checkpoints0, bytes0, syncs0 uint64
	var writeNs0, syncNs0 int64
	if j != nil {
		commits0, checkpoints0 = j.log.TotalCommits(), j.log.Checkpoints()
		bytes0, syncs0 = j.bytes.Load(), j.syncs.Load()
		writeNs0, syncNs0 = j.writeNs.Load(), j.syncNs.Load()
	}
	// The workloads write only table kv; a written row's plaintext size is
	// the unit of user bytes.
	kvRow := 0
	if t, err := db.Table("kv"); err == nil {
		kvRow = t.Schema().RowSize()
	}
	var ms0, ms1 runtime.MemStats
	if col != nil {
		col.on.Store(true)
	}
	// Start every replay from a collected heap, so one replay's garbage
	// is not charged to the next one's loop time.
	runtime.GC()
	loop := time.Now()
	for id := int64(0); id < int64(sp.replay); id++ {
		s := wl.next(id)
		r.perKind[s.kind]++
		parent := -1
		if p, ok := roots[id]; ok {
			parent = p
		}
		if j != nil {
			j.cur.Store(id)
			j.parent.Store(int64(parent))
		}
		// The request as the client sends it and the server decodes it.
		t0 := time.Now()
		req := &wire.Request{Type: wire.TExec, ID: uint32(id), SQL: s.sql}
		if s.prep >= 0 {
			req = &wire.Request{Type: wire.TExecPrepared, ID: uint32(id), Handle: uint32(s.prep + 1)}
			for _, a := range s.args {
				v, err := table.FromAny(a)
				if err != nil {
					return nil, err
				}
				req.Args = append(req.Args, v)
			}
		}
		buf := wire.EncodeRequest(req)
		t1 := time.Now()
		dreq, err := wire.DecodeRequest(buf)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		var p *sql.Prepared
		if s.prep >= 0 {
			p = preps[s.prep]
		} else if p, err = x.PrepareOneShot(dreq.SQL); err != nil {
			return nil, err
		}
		t3 := time.Now()
		var picks0 core.PickStats
		if col != nil {
			picks0 = db.PlanStats()
		}
		if allocs {
			runtime.ReadMemStats(&ms0)
		}
		t4 := time.Now()
		res, err := p.Exec(dreq.Args)
		t5 := time.Now()
		if allocs {
			runtime.ReadMemStats(&ms1)
			r.allocs += float64(ms1.Mallocs - ms0.Mallocs)
			r.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		}
		if err != nil {
			return nil, fmt.Errorf("statement %d (%s): %w", id, s.kind, err)
		}
		if col != nil {
			tallyPicks(r.counts, s.kind, picks0, db.PlanStats())
		}
		// The reply as the server encodes it and the client decodes it.
		t6 := time.Now()
		resp := &wire.Response{Type: wire.TResult, ID: uint32(id),
			Result: &wire.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected}}
		rbuf := wire.EncodeResponse(resp)
		t7 := time.Now()
		dresp, err := wire.DecodeResponse(rbuf)
		if err != nil {
			return nil, err
		}
		t8 := time.Now()
		if err := wl.check(s, dresp.Result); err != nil {
			return nil, fmt.Errorf("statement %d (%s): wrong answer: %w", id, s.kind, err)
		}
		if res.Affected {
			r.writes++
			if n := res.Rows[0][0].AsInt(); n > 0 {
				r.userBytes += float64(n) * float64(kvRow)
			}
		}
		if col != nil {
			col.add("wire.encode", parent, id, t0, t1)
			col.add("wire.decode", parent, id, t1, t2)
			if s.prep < 0 {
				col.add("sql.prepare", parent, id, t2, t3)
			}
			col.add("exec.run", parent, id, t4, t5)
			col.add("wire.encode", parent, id, t6, t7)
			col.add("wire.decode", parent, id, t7, t8)
			r.execNs[s.kind] = append(r.execNs[s.kind], float64(t5.Sub(t4).Nanoseconds()))
			r.execTotalNs += float64(t5.Sub(t4).Nanoseconds())
			r.prepareNs += float64(t3.Sub(t2).Nanoseconds())
			r.codecNs += float64(t2.Sub(t0).Nanoseconds() + t8.Sub(t6).Nanoseconds())
		}
	}
	r.loopNs = float64(time.Since(loop).Nanoseconds())
	if col != nil {
		col.on.Store(false)
	}
	io1, cs1 := db.IOStats(), x.CacheStats()
	r.counts["enclave.blocks_opened"] = io1.BlocksOpened - io0.BlocksOpened
	r.counts["enclave.blocks_sealed"] = io1.BlocksSealed - io0.BlocksSealed
	r.counts["enclave.reads"] = fc.reads.Load() - reads0
	r.counts["enclave.writes"] = fc.writes.Load() - writes0
	r.counts["sql.compiles"] = cs1.Compiles - cs0.Compiles
	if j != nil {
		r.counts["wal.commits"] = j.log.TotalCommits() - commits0
		r.counts["wal.checkpoints"] = j.log.Checkpoints() - checkpoints0
		r.counts["wal.bytes"] = j.bytes.Load() - bytes0
		r.counts["wal.syncs"] = j.syncs.Load() - syncs0
		r.walWriteNs = float64(j.writeNs.Load() - writeNs0)
		r.walSyncNs = float64(j.syncNs.Load() - syncNs0)
	}

	if err := wl.verify(func(q string) (*client.Result, error) {
		res, err := x.Execute(q)
		if err != nil {
			return nil, err
		}
		return &wire.Result{Cols: res.Cols, Rows: res.Rows, Affected: res.Affected}, nil
	}); err != nil {
		return nil, fmt.Errorf("replay final check: %w", err)
	}
	if col == nil {
		return r, nil
	}
	r.untrustedPerUser, r.blockSize = storageGeometry(db)
	dummy, err := x.Prepare("SELECT COUNT(*) FROM oblidb_pad")
	if err != nil {
		return nil, err
	}
	var dts []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		if _, err := dummy.Exec(nil); err != nil {
			return nil, err
		}
		dts = append(dts, float64(time.Since(t).Nanoseconds()))
	}
	r.dummyUs = median(dts) / 1e3
	return r, nil
}

// tallyPicks adds one statement's operator picks to counts, under
// planner.picks.<kind>.<alg> when that name is listed, else under
// planner.picks.other.
func tallyPicks(counts map[string]uint64, kind string, before, after core.PickStats) {
	add := func(alg string, n uint64) {
		if n == 0 {
			return
		}
		name := "planner.picks." + kind + "." + alg
		for _, p := range pickNames {
			if p == name {
				counts[name] += n
				return
			}
		}
		counts["planner.picks.other"] += n
	}
	for a, n := range after.Select {
		add("select."+a, n-before.Select[a])
	}
	for a, n := range after.Join {
		add("join."+a, n-before.Join[a])
	}
	add("sort", after.Sorts-before.Sorts)
	add("limit", after.Limits-before.Limits)
}

// storageGeometry returns the untrusted bytes the user tables occupy
// (flat blocks, ORAM blocks and position maps, sealing overhead
// included) per byte of live user rows, and the block size of the
// largest table.
func storageGeometry(db *core.DB) (float64, int) {
	var untrusted, user float64
	bsize, biggest := 0, 0
	for _, name := range db.Tables() {
		if name == "oblidb_pad" {
			continue
		}
		t, err := db.Table(name)
		if err != nil {
			continue
		}
		size, bs := 0, 0
		if f := t.Flat(); f != nil {
			size += f.Store().SizeBytes()
			bs = f.Store().BlockSize()
		}
		if ix := t.Index(); ix != nil {
			size += ix.Store().SizeBytes()
			if pm := ix.PosMapStore(); pm != nil {
				size += pm.SizeBytes()
			}
			if bs == 0 {
				bs = ix.Store().BlockSize()
			}
		}
		untrusted += float64(size)
		user += float64(t.NumRows() * t.Schema().RowSize())
		if size > biggest {
			biggest, bsize = size, bs
		}
	}
	if user == 0 {
		return 0, bsize
	}
	return untrusted / user, bsize
}

// sameCounts reports the first count that differs between two replays.
func sameCounts(a, b map[string]uint64) error {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return fmt.Errorf("%s: %d then %d", k, a[k], b[k])
		}
	}
	return nil
}

// writeSpans writes the traced run's spans to the build directory.
func writeSpans(e *env, sp spec, seed uint64, col *collector) error {
	dir := filepath.Join(e.build, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	col.mu.Lock()
	data, err := json.Marshal(map[string]any{
		"workload": sp.name, "seed": seed, "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "spans": col.spans,
	})
	col.mu.Unlock()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", sp.name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(col.spans), path)
	return nil
}
