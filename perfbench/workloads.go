package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"oblidb/client"
	"oblidb/internal/bdb"
	"oblidb/internal/table"
)

// spec fixes one workload's server settings and load shape. The same
// values are documented in README.md and in BENCHMARK.json's "why".
type spec struct {
	name string
	// checkpointBytes, when positive, runs the server with a synced
	// journal at a fresh path, compacted past this size.
	checkpointBytes int64
	// rate is the open-loop arrival rate, statements per second (see
	// README.md for how it was chosen).
	rate float64
	// replay is the number of statements in the traced passes.
	replay int
	// make builds the workload's data, statement stream and model.
	make func(seed uint64) workload
}

// Epoch settings of every workload: epochs of 8 slots executed serially,
// ticked well below one epoch's execution time so epochs run back to
// back and the engine, not the ticker, sets the pace.
const (
	epochSize        = 8
	epochIntervalDur = 200 * time.Microsecond
)

// inFlight is the number of requests each connection keeps in flight in
// the closed-loop phase and the traced pass.
const inFlight = 8

var specs = map[string]spec{
	"analytics": {name: "analytics", rate: 50, replay: 150, make: newAnalytics},
	"oltp":      {name: "oltp", checkpointBytes: 64 << 20, rate: 20, replay: 100, make: newOLTP},
	"ingest":    {name: "ingest", checkpointBytes: 1 << 20, rate: 200, replay: 600, make: newIngest},
}

// wal reports whether the workload's server journals.
func (sp spec) wal() bool { return sp.checkpointBytes > 0 }

// flags returns the server flags for a journal at walPath (unused
// without one).
func (sp spec) flags(walPath string) []string {
	f := []string{"-epoch-size", strconv.Itoa(epochSize), "-workers", "1", "-parallelism", "1",
		"-epoch-interval", epochIntervalDur.String()}
	if sp.wal() {
		f = append(f, "-wal", walPath, "-wal-sync=true", "-wal-checkpoint-bytes", strconv.FormatInt(sp.checkpointBytes, 10))
	}
	return f
}

// stmt is one generated statement. A prepared statement (prep >= 0)
// executes the workload's prepared shape with args; a literal one
// (prep < 0) is sent as sql.
type stmt struct {
	id   int64
	kind string // q1 q2 q3 get upd ins del cnt
	sql  string
	prep int
	args []any
	key  int64
}

// workload is a seeded data set, its statement stream and the model
// that checks the answers.
type workload interface {
	// setup returns the DDL, then the load statements (literal SQL). The
	// load statements may run concurrently.
	setup() (ddl, load []string)
	// prepared returns the shapes stmt.prep indexes.
	prepared() []string
	// next returns statement id of the stream; it depends only on the
	// seed and id.
	next(id int64) stmt
	// check validates a successful reply and records its effect in the
	// model. It is safe for concurrent use.
	check(s stmt, res *client.Result) error
	// verify runs the final correctness check through q.
	verify(q func(sql string) (*client.Result, error)) error
}

// mix is splitmix64: a stateless, seeded hash from (seed, id) to a
// uniform 64-bit value, so statement id's inputs need no shared state.
func mix(seed uint64, id int64) uint64 {
	z := seed ^ (uint64(id)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// insertSQL renders rows as multi-row literal INSERT statements of at
// most per rows each.
func insertSQL(tbl string, rows []table.Row, per int) []string {
	var out []string
	for lo := 0; lo < len(rows); lo += per {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", tbl)
		for i, r := range rows[lo:min(lo+per, len(rows))] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for j, v := range r {
				if j > 0 {
					b.WriteString(", ")
				}
				switch v.Kind {
				case table.KindString:
					fmt.Fprintf(&b, "'%s'", v.AsString())
				case table.KindFloat:
					fmt.Fprintf(&b, "%.2f", v.AsFloat())
				default:
					fmt.Fprintf(&b, "%d", v.AsInt())
				}
			}
			b.WriteByte(')')
		}
		out = append(out, b.String())
	}
	return out
}

// affected reads a DML reply's affected-row count.
func affected(res *client.Result) (int64, error) {
	if res == nil || !res.Affected || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("want an affected-rows reply, got %v", res)
	}
	return res.Rows[0][0].AsInt(), nil
}

// closeTo reports whether two floats agree to 1e-9 relative (SUM and AVG
// may add in a different order than the reference).
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// --- analytics: BDB Q1-Q3, prepared, read-only ---------------------------

type analytics struct {
	rank, visits []table.Row
	prepShapes   []string
	q1Arg        int64
	q3Lo, q3Hi   string
	// Reference answers: Q1 rows as sorted "url|rank" strings, Q2 sums
	// by prefix, Q3 sums and averages by sourceIP.
	q1           []string
	q2           map[string]float64
	q3sum, q3avg map[string]float64
}

// newAnalytics generates RANKINGS and USERVISITS at 1% of paper scale
// and computes the reference answers of Q1-Q3 in plain Go.
func newAnalytics(seed uint64) workload {
	g := bdb.Scaled(0.01, seed)
	a := &analytics{
		rank: g.GenRankings(), visits: g.GenUserVisits(),
		q1Arg: bdb.Q1Param, q3Lo: bdb.Q3DateLo, q3Hi: bdb.Q3DateHi,
		q2: map[string]float64{}, q3sum: map[string]float64{}, q3avg: map[string]float64{},
	}
	a.prepShapes = []string{
		"SELECT pageURL, pageRank FROM rankings WHERE pageRank > ?",
		"SELECT SUBSTR(sourceIP, 1, 8), SUM(adRevenue) FROM uservisits GROUP BY SUBSTR(sourceIP, 1, 8)",
		"SELECT sourceIP, SUM(adRevenue), AVG(pageRank) FROM rankings JOIN uservisits ON pageURL = destURL " +
			"WHERE visitDate >= ? AND visitDate <= ? GROUP BY sourceIP",
	}
	rankOf := map[string]int64{}
	for _, r := range a.rank {
		rankOf[r[0].AsString()] = r[1].AsInt()
		if r[1].AsInt() > a.q1Arg {
			a.q1 = append(a.q1, fmt.Sprintf("%s|%d", r[0].AsString(), r[1].AsInt()))
		}
	}
	sort.Strings(a.q1)
	q3n := map[string]float64{}
	for _, v := range a.visits {
		ip, rev := v[0].AsString(), v[3].AsFloat()
		a.q2[ip[:min(len(ip), bdb.Q2Param)]] += rev
		if d := v[2].AsString(); d >= a.q3Lo && d <= a.q3Hi {
			if pr, ok := rankOf[v[1].AsString()]; ok {
				a.q3sum[ip] += rev
				a.q3avg[ip] += float64(pr)
				q3n[ip]++
			}
		}
	}
	for ip, n := range q3n {
		a.q3avg[ip] /= n
	}
	return a
}

func (a *analytics) setup() (ddl, load []string) {
	ddl = []string{
		fmt.Sprintf("CREATE TABLE rankings (pageURL VARCHAR(24), pageRank INTEGER, avgDuration INTEGER) CAPACITY = %d", len(a.rank)+8),
		fmt.Sprintf("CREATE TABLE uservisits (sourceIP VARCHAR(15), destURL VARCHAR(24), visitDate VARCHAR(10), adRevenue FLOAT) CAPACITY = %d", len(a.visits)+8),
	}
	return ddl, append(insertSQL("rankings", a.rank, 200), insertSQL("uservisits", a.visits, 200)...)
}

func (a *analytics) prepared() []string { return a.prepShapes }

func (a *analytics) next(id int64) stmt {
	s := stmt{id: id, prep: int(id % 3)}
	switch s.prep {
	case 0:
		s.kind, s.args = "q1", []any{a.q1Arg}
	case 1:
		s.kind = "q2"
	default:
		s.kind, s.args = "q3", []any{a.q3Lo, a.q3Hi}
	}
	s.sql = a.prepShapes[s.prep]
	return s
}

func (a *analytics) check(s stmt, res *client.Result) error {
	switch s.kind {
	case "q1":
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			if len(r) != 2 {
				return fmt.Errorf("q1: row %v", r)
			}
			got[i] = fmt.Sprintf("%s|%d", r[0].AsString(), r[1].AsInt())
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(a.q1, ",") {
			return fmt.Errorf("q1: %d rows differ from the %d-row reference", len(got), len(a.q1))
		}
	case "q2":
		if len(res.Rows) != len(a.q2) {
			return fmt.Errorf("q2: %d groups, want %d", len(res.Rows), len(a.q2))
		}
		for _, r := range res.Rows {
			want, ok := a.q2[r[0].AsString()]
			if len(r) != 2 || !ok || !closeTo(r[1].AsFloat(), want) {
				return fmt.Errorf("q2: row %v, want sum %v", r, want)
			}
		}
	case "q3":
		if len(res.Rows) != len(a.q3sum) {
			return fmt.Errorf("q3: %d groups, want %d", len(res.Rows), len(a.q3sum))
		}
		for _, r := range res.Rows {
			ip := r[0].AsString()
			sum, ok := a.q3sum[ip]
			if len(r) != 3 || !ok || !closeTo(r[1].AsFloat(), sum) || !closeTo(r[2].AsFloat(), a.q3avg[ip]) {
				return fmt.Errorf("q3: row %v, want sum %v avg %v", r, sum, a.q3avg[ip])
			}
		}
	}
	return nil
}

// verify has nothing to add: analytics is read-only and every answer
// was compared to the reference as it arrived.
func (a *analytics) verify(func(string) (*client.Result, error)) error { return nil }

// --- oltp: literal point reads and updates on an index-only table --------

const oltpRows = 1000

type oltp struct {
	seed    uint64
	initial [oltpRows]int64

	mu      sync.Mutex
	updated [oltpRows]int64 // successful UPDATEs per key
}

// newOLTP seeds kv(k, v) with k = 0..999 and v uniform in [0, 1000).
func newOLTP(seed uint64) workload {
	o := &oltp{seed: seed}
	for k := range o.initial {
		o.initial[k] = int64(mix(seed^0x01, int64(k)) % 1000)
	}
	return o
}

func (o *oltp) setup() (ddl, load []string) {
	rows := make([]table.Row, oltpRows)
	for k := range rows {
		rows[k] = table.Row{table.Int(int64(k)), table.Int(o.initial[k])}
	}
	return []string{"CREATE TABLE kv (k INTEGER, v INTEGER) USING INDEX(k)"}, insertSQL("kv", rows, 100)
}

func (o *oltp) prepared() []string { return nil }

// next mixes point SELECTs and UPDATEs 3:1 on uniform keys. An UPDATE
// costs tens of times a SELECT, so at an even mix the median latency
// sits in the gap between the two clusters and flips between them from
// run to run; at 3:1 the median is a SELECT's and the p90 an UPDATE's.
// The statements are literal: a placeholder key would not narrow the
// index range, so a prepared point query would scan the table.
func (o *oltp) next(id int64) stmt {
	r := mix(o.seed, id)
	s := stmt{id: id, prep: -1, key: int64((r >> 2) % oltpRows)}
	if r&3 != 0 {
		s.kind, s.sql = "get", fmt.Sprintf("SELECT v FROM kv WHERE k = %d", s.key)
	} else {
		s.kind, s.sql = "upd", fmt.Sprintf("UPDATE kv SET v = v + 1 WHERE k = %d", s.key)
	}
	return s
}

func (o *oltp) check(s stmt, res *client.Result) error {
	if s.kind == "upd" {
		n, err := affected(res)
		if err != nil || n != 1 {
			return fmt.Errorf("upd k=%d: affected %d, %v", s.key, n, err)
		}
		o.mu.Lock()
		o.updated[s.key]++
		o.mu.Unlock()
		return nil
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return fmt.Errorf("get k=%d: %d rows", s.key, len(res.Rows))
	}
	if v := res.Rows[0][0].AsInt(); v < o.initial[s.key] {
		return fmt.Errorf("get k=%d: v=%d below its initial %d", s.key, v, o.initial[s.key])
	}
	return nil
}

// verify checks every key's final value, and so the sum of v, against
// the initial values plus the successful UPDATEs.
func (o *oltp) verify(q func(string) (*client.Result, error)) error {
	res, err := q("SELECT k, v FROM kv")
	if err != nil {
		return err
	}
	if len(res.Rows) != oltpRows {
		return fmt.Errorf("final scan: %d rows, want %d", len(res.Rows), oltpRows)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	var got, want int64
	for _, r := range res.Rows {
		k, v := r[0].AsInt(), r[1].AsInt()
		if k < 0 || k >= oltpRows || v != o.initial[k]+o.updated[k] {
			return fmt.Errorf("final k=%d: v=%d", k, v)
		}
		got += v
	}
	for k := range o.initial {
		want += o.initial[k] + o.updated[k]
	}
	if got != want {
		return fmt.Errorf("final sum(v)=%d, want %d", got, want)
	}
	return nil
}

// --- ingest: prepared batch inserts, range deletes and counts ------------

const (
	ingestLive  = 4000
	ingestBatch = 16
)

type ingest struct {
	seed  uint64
	shape []string

	mu       sync.Mutex
	inserted map[int64]bool // successful insert batches, by slot
	trimmed  int64          // highest successful delete threshold
}

// newIngest seeds kv(k, v, w) with keys 0..3999. Statement id belongs
// to slot id/3 and does, by id%3: insert keys 4000+16·slot.. (16 rows),
// delete k < 16·(slot+1), or count rows with v above a seeded bound. So
// inserts and deletes balance and the table stays near 4,000 live rows.
func newIngest(seed uint64) workload {
	var b strings.Builder
	b.WriteString("INSERT INTO kv VALUES ")
	for i := 0; i < ingestBatch; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(?, ?, ?)")
	}
	return &ingest{
		seed:     seed,
		shape:    []string{b.String(), "DELETE FROM kv WHERE k < ?", "SELECT COUNT(*) FROM kv WHERE v > ?"},
		inserted: map[int64]bool{},
	}
}

func (g *ingest) row(k int64) []any {
	r := mix(g.seed, -1-k)
	return []any{k, int64(r % 1000), int64(r >> 44)}
}

func (g *ingest) setup() (ddl, load []string) {
	rows := make([]table.Row, ingestLive)
	for k := range rows {
		r := g.row(int64(k))
		rows[k] = table.Row{table.Int(r[0].(int64)), table.Int(r[1].(int64)), table.Int(r[2].(int64))}
	}
	ddl = []string{fmt.Sprintf("CREATE TABLE kv (k INTEGER, v INTEGER, w INTEGER) CAPACITY = %d", ingestLive+512)}
	return ddl, insertSQL("kv", rows, 200)
}

func (g *ingest) prepared() []string { return g.shape }

func (g *ingest) next(id int64) stmt {
	slot := id / 3
	s := stmt{id: id, prep: int(id % 3), key: slot}
	switch s.prep {
	case 0:
		s.kind = "ins"
		for i := int64(0); i < ingestBatch; i++ {
			s.args = append(s.args, g.row(ingestLive+ingestBatch*slot+i)...)
		}
	case 1:
		s.kind, s.args = "del", []any{ingestBatch * (slot + 1)}
	default:
		s.kind, s.args = "cnt", []any{int64(mix(g.seed, id) % 1000)}
	}
	s.sql = g.shape[s.prep]
	return s
}

func (g *ingest) check(s stmt, res *client.Result) error {
	switch s.kind {
	case "ins":
		if n, err := affected(res); err != nil || n != ingestBatch {
			return fmt.Errorf("ins slot %d: affected %d, %v", s.key, n, err)
		}
		g.mu.Lock()
		g.inserted[s.key] = true
		g.mu.Unlock()
	case "del":
		if _, err := affected(res); err != nil {
			return fmt.Errorf("del slot %d: %v", s.key, err)
		}
		g.mu.Lock()
		g.trimmed = max(g.trimmed, s.args[0].(int64))
		g.mu.Unlock()
	case "cnt":
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 || res.Rows[0][0].AsInt() < 0 {
			return fmt.Errorf("cnt: reply %v", res.Rows)
		}
	}
	return nil
}

// verify trims past every delete the run made, then compares COUNT(*)
// with the model's live rows: initial and successfully inserted keys at
// or above the trim threshold.
func (g *ingest) verify(q func(string) (*client.Result, error)) error {
	g.mu.Lock()
	trim := g.trimmed + ingestBatch
	want := int64(0)
	for k := trim; k < ingestLive; k++ {
		want++
	}
	for slot := range g.inserted {
		lo := ingestLive + ingestBatch*slot
		want += max(0, min(ingestBatch, lo+ingestBatch-max(lo, trim)))
	}
	g.mu.Unlock()
	if _, err := q(fmt.Sprintf("DELETE FROM kv WHERE k < %d", trim)); err != nil {
		return err
	}
	res, err := q("SELECT COUNT(*) FROM kv WHERE v >= 0")
	if err != nil {
		return err
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != want {
		return fmt.Errorf("final count %v, model has %d live rows", res.Rows, want)
	}
	return nil
}
