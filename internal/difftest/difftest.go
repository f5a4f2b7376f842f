// Package difftest is the differential test harness: a seeded generator
// produces randomized SQL workloads (extending internal/workload's mix
// idea to full statements), each statement carries its own reference
// semantics over internal/baseline's plain tables, and the harness runs
// the workload through the serial oblivious engine, the partition-
// parallel engine at several pool sizes, and the baseline, asserting
// every engine returns the same result multiset for every statement.
//
// The point is cross-checking three independent implementations of the
// same semantics: the oblivious operators (with all their padding and
// dummy-write machinery), their partition-parallel variants (with
// split/merge machinery on top), and a plain in-memory executor with
// none of it. A divergence in any padding, compaction, or merge step
// shows up as a multiset mismatch on some generated statement.
package difftest

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"oblidb/internal/baseline"
	"oblidb/internal/table"
)

// Op is one generated statement: its SQL text (for the engines) and its
// reference execution (for the baseline).
type Op struct {
	SQL string
	// Ref applies the statement to the reference state and returns the
	// expected result, or nil for DML (engines return affected-count
	// rows, which the harness does not compare for DML).
	Ref func(r *Ref) *RefResult
}

// RefResult is the reference answer: column names plus rows.
type RefResult struct {
	Cols []string
	Rows []table.Row
}

// Ref is the reference state: plain unprotected tables.
type Ref struct {
	t0 *baseline.PlainTable // t0(k INTEGER unique, v INTEGER, s VARCHAR)
	t1 *baseline.PlainTable // t1(fk INTEGER, w INTEGER)
}

// NewRef creates empty reference state matching the generator's schema.
func NewRef() *Ref {
	return &Ref{
		t0: baseline.NewPlainTable(table.MustSchema(
			table.Column{Name: "k", Kind: table.KindInt},
			table.Column{Name: "v", Kind: table.KindInt},
			table.Column{Name: "s", Kind: table.KindString, Width: 12},
		)),
		t1: baseline.NewPlainTable(table.MustSchema(
			table.Column{Name: "fk", Kind: table.KindInt},
			table.Column{Name: "w", Kind: table.KindInt},
		)),
	}
}

// Setup returns the DDL every engine runs before the workload.
func Setup() []string {
	return []string{
		"CREATE TABLE t0 (k INTEGER, v INTEGER, s VARCHAR(12)) CAPACITY = 512",
		"CREATE TABLE t1 (fk INTEGER, w INTEGER) CAPACITY = 512",
	}
}

// pred is a generated predicate over t0: SQL text plus semantics.
type pred struct {
	sql string
	fn  func(k, v int64, s string) bool
}

// Generator produces a deterministic statement stream.
type Generator struct {
	rng   *rand.Rand
	nextK int64
	rows0 int // live t0 rows (bounds delete/insert churn)
	rows1 int

	// KeyedDML draws from its own stream and moves rows to keys of its
	// own, above any key Next inserts, so interleaving it leaves Next's
	// draws and keys as they were.
	krng   *rand.Rand
	movedK int64
}

// movedKeyBase is the first key a key-moving KeyedDML assigns.
const movedKeyBase = 1 << 20

// NewGenerator seeds a generator.
func NewGenerator(seed uint64) *Generator {
	return &Generator{
		rng:    rand.New(rand.NewPCG(seed, 0x5eed)),
		krng:   rand.New(rand.NewPCG(seed, 0x6b6579)),
		movedK: movedKeyBase,
	}
}

func (g *Generator) pred0() pred { return randPred(g.rng) }

// randPred draws a predicate over t0 from rng.
func randPred(rng *rand.Rand) pred {
	switch rng.IntN(6) {
	case 0:
		c := int64(rng.IntN(40) - 20)
		return pred{fmt.Sprintf("v < %d", c), func(_, v int64, _ string) bool { return v < c }}
	case 1:
		c := int64(rng.IntN(40) - 20)
		return pred{fmt.Sprintf("v >= %d", c), func(_, v int64, _ string) bool { return v >= c }}
	case 2:
		m := int64(rng.IntN(4) + 2)
		r := rng.Int64N(m)
		return pred{fmt.Sprintf("k %% %d = %d", m, r), func(k, _ int64, _ string) bool { return k%m == r }}
	case 3:
		c := int64(rng.IntN(40) - 20)
		return pred{fmt.Sprintf("NOT v = %d", c), func(_, v int64, _ string) bool { return v != c }}
	case 4:
		s := fmt.Sprintf("s%d", rng.IntN(7))
		return pred{fmt.Sprintf("s = '%s'", s), func(_, _ int64, have string) bool { return have == s }}
	default:
		c := int64(rng.IntN(40) - 20)
		m := int64(rng.IntN(3) + 2)
		return pred{fmt.Sprintf("(v < %d) OR (k %% %d = 0)", c, m),
			func(k, v int64, _ string) bool { return v < c || k%m == 0 }}
	}
}

func (g *Generator) genStr() string { return fmt.Sprintf("s%d", g.rng.IntN(7)) }

func (g *Generator) genVal() int64 { return int64(g.rng.IntN(40) - 20) }

// row0 iterates t0 reference rows as (k, v, s).
func each0(r *Ref, fn func(k, v int64, s string)) {
	for _, row := range r.t0.Rows {
		fn(row[0].AsInt(), row[1].AsInt(), row[2].AsString())
	}
}

// Next produces the next workload statement.
func (g *Generator) Next() Op {
	p := g.rng.IntN(100)
	switch {
	case p < 25 && g.rows0 < 400 || g.rows0 == 0:
		return g.insert0()
	case p < 35 && g.rows1 < 400:
		return g.insert1()
	case p < 43:
		return g.delete0()
	case p < 51:
		return g.update0()
	case p < 63:
		return g.select0()
	case p < 71:
		return g.orderLimit0()
	case p < 79:
		return g.aggregate0()
	case p < 88:
		return g.group0()
	case p < 94:
		return g.joinAggregate()
	default:
		return g.join()
	}
}

func (g *Generator) insert0() Op {
	n := g.rng.IntN(8) + 1
	g.rows0 += n
	vals := make([]string, n)
	rows := make([]table.Row, n)
	for i := range vals {
		k, v, s := g.nextK, g.genVal(), g.genStr()
		g.nextK++
		vals[i] = fmt.Sprintf("(%d, %d, '%s')", k, v, s)
		rows[i] = table.Row{table.Int(k), table.Int(v), table.Str(s)}
	}
	return Op{
		SQL: "INSERT INTO t0 VALUES " + strings.Join(vals, ", "),
		Ref: func(r *Ref) *RefResult { r.t0.Insert(rows...); return nil },
	}
}

func (g *Generator) insert1() Op {
	n := g.rng.IntN(8) + 1
	g.rows1 += n
	vals := make([]string, n)
	rows := make([]table.Row, n)
	for i := range vals {
		// Foreign keys land in (and slightly beyond) the primary range.
		fk := g.rng.Int64N(g.nextK + 4)
		w := g.genVal()
		vals[i] = fmt.Sprintf("(%d, %d)", fk, w)
		rows[i] = table.Row{table.Int(fk), table.Int(w)}
	}
	return Op{
		SQL: "INSERT INTO t1 VALUES " + strings.Join(vals, ", "),
		Ref: func(r *Ref) *RefResult { r.t1.Insert(rows...); return nil },
	}
}

func (g *Generator) delete0() Op {
	// Delete a narrow slice so the table keeps churning without
	// emptying: one specific value.
	c := g.genVal()
	return Op{
		SQL: fmt.Sprintf("DELETE FROM t0 WHERE v = %d", c),
		Ref: func(r *Ref) *RefResult {
			kept := r.t0.Rows[:0]
			for _, row := range r.t0.Rows {
				if row[1].AsInt() != c {
					kept = append(kept, row)
				}
			}
			g.rows0 -= len(r.t0.Rows) - len(kept)
			r.t0.Rows = kept
			return nil
		},
	}
}

func (g *Generator) update0() Op {
	pd := g.pred0()
	c := int64(g.rng.IntN(9) - 4)
	return Op{
		SQL: fmt.Sprintf("UPDATE t0 SET v = v + %d WHERE %s", c, pd.sql),
		Ref: func(r *Ref) *RefResult {
			for i, row := range r.t0.Rows {
				if pd.fn(row[0].AsInt(), row[1].AsInt(), row[2].AsString()) {
					r.t0.Rows[i] = table.Row{row[0], table.Int(row[1].AsInt() + c), row[2]}
				}
			}
			return nil
		},
	}
}

// KeyedDML generates an UPDATE or DELETE on t0 narrowed by a literal
// range on k — a point (k = c) or a span (k >= lo AND k <= hi) — with
// or without a residual predicate, so the engines' key-ranged DML paths
// are diffed; Next's DML never narrows by key. The key-moving UPDATE
// shape targets a point and moves the row to a fresh key, keeping t0.k
// unique for the joins and orderLimit0.
func (g *Generator) KeyedDML() Op {
	rng := g.krng
	lo := rng.Int64N(g.nextK + 1)
	hi := lo
	where := fmt.Sprintf("k = %d", lo)
	point := rng.IntN(2) == 0
	if !point {
		hi = lo + rng.Int64N(8)
		where = fmt.Sprintf("k >= %d AND k <= %d", lo, hi)
	}
	rest := pred{fn: func(int64, int64, string) bool { return true }}
	if rng.IntN(2) == 0 {
		rest = randPred(rng)
		where += " AND (" + rest.sql + ")"
	}
	match := func(k, v int64, s string) bool { return k >= lo && k <= hi && rest.fn(k, v, s) }
	switch {
	case rng.IntN(3) == 0:
		return Op{
			SQL: "DELETE FROM t0 WHERE " + where,
			Ref: func(r *Ref) *RefResult {
				kept := r.t0.Rows[:0]
				for _, row := range r.t0.Rows {
					if !match(row[0].AsInt(), row[1].AsInt(), row[2].AsString()) {
						kept = append(kept, row)
					}
				}
				g.rows0 -= len(r.t0.Rows) - len(kept)
				r.t0.Rows = kept
				return nil
			},
		}
	case point && rng.IntN(2) == 0:
		nk := g.movedK
		g.movedK++
		return Op{
			SQL: fmt.Sprintf("UPDATE t0 SET k = %d WHERE %s", nk, where),
			Ref: func(r *Ref) *RefResult {
				for i, row := range r.t0.Rows {
					if match(row[0].AsInt(), row[1].AsInt(), row[2].AsString()) {
						r.t0.Rows[i] = table.Row{table.Int(nk), row[1], row[2]}
					}
				}
				return nil
			},
		}
	default:
		c := int64(rng.IntN(9) - 4)
		return Op{
			SQL: fmt.Sprintf("UPDATE t0 SET v = v + %d WHERE %s", c, where),
			Ref: func(r *Ref) *RefResult {
				for i, row := range r.t0.Rows {
					if match(row[0].AsInt(), row[1].AsInt(), row[2].AsString()) {
						r.t0.Rows[i] = table.Row{row[0], table.Int(row[1].AsInt() + c), row[2]}
					}
				}
				return nil
			},
		}
	}
}

func (g *Generator) select0() Op {
	pd := g.pred0()
	sql := fmt.Sprintf("SELECT * FROM t0 WHERE %s", pd.sql)
	cols := []string{"k", "v", "s"}
	project := false
	switch g.rng.IntN(5) {
	case 0:
		sql = fmt.Sprintf("SELECT k FROM t0 WHERE %s", pd.sql)
		cols = []string{"k"}
		project = true
	case 1:
		sql += " FORCE Hash"
	case 2:
		sql += " FORCE Large"
	case 3:
		sql += " FORCE Small"
	}
	return Op{
		SQL: sql,
		Ref: func(r *Ref) *RefResult {
			res := &RefResult{Cols: cols}
			each0(r, func(k, v int64, s string) {
				if !pd.fn(k, v, s) {
					return
				}
				if project {
					res.Rows = append(res.Rows, table.Row{table.Int(k)})
				} else {
					res.Rows = append(res.Rows, table.Row{table.Int(k), table.Int(v), table.Str(s)})
				}
			})
			return res
		},
	}
}

// orderLimit0 generates ORDER BY (and usually LIMIT) shapes over t0.
// The sort key is k — unique by construction — so the top-n prefix is
// deterministic and every engine must return the same multiset.
func (g *Generator) orderLimit0() Op {
	pd := g.pred0()
	desc := g.rng.IntN(2) == 0
	dir := ""
	if desc {
		dir = " DESC"
	}
	limit := -1
	limitSQL := ""
	if g.rng.IntN(4) != 0 {
		limit = g.rng.IntN(6) + 1
		limitSQL = fmt.Sprintf(" LIMIT %d", limit)
	}
	return Op{
		SQL: fmt.Sprintf("SELECT * FROM t0 WHERE %s ORDER BY k%s%s", pd.sql, dir, limitSQL),
		Ref: func(r *Ref) *RefResult {
			res := &RefResult{Cols: []string{"k", "v", "s"}}
			each0(r, func(k, v int64, s string) {
				if pd.fn(k, v, s) {
					res.Rows = append(res.Rows, table.Row{table.Int(k), table.Int(v), table.Str(s)})
				}
			})
			sort.Slice(res.Rows, func(i, j int) bool {
				if desc {
					return res.Rows[i][0].AsInt() > res.Rows[j][0].AsInt()
				}
				return res.Rows[i][0].AsInt() < res.Rows[j][0].AsInt()
			})
			if limit >= 0 && len(res.Rows) > limit {
				res.Rows = res.Rows[:limit]
			}
			return res
		},
	}
}

// joinAggregate generates join-then-aggregate shapes: the aggregate
// runs fused over the joined intermediate with the side filter pushed
// into the join's oblivious pre-filter.
func (g *Generator) joinAggregate() Op {
	c := g.genVal()
	return Op{
		SQL: fmt.Sprintf("SELECT COUNT(*), SUM(w) FROM t0 JOIN t1 ON k = fk WHERE w < %d", c),
		Ref: func(r *Ref) *RefResult {
			byK := make(map[int64]table.Row, len(r.t0.Rows))
			for _, row := range r.t0.Rows {
				byK[row[0].AsInt()] = row
			}
			var count int64
			var sum float64
			for _, fr := range r.t1.Rows {
				if fr[1].AsInt() >= c {
					continue
				}
				if _, ok := byK[fr[0].AsInt()]; ok {
					count++
					sum += float64(fr[1].AsInt())
				}
			}
			return &RefResult{
				Cols: []string{"COUNT(*)", "SUM(w)"},
				Rows: []table.Row{{table.Int(count), table.Float(sum)}},
			}
		},
	}
}

func (g *Generator) aggregate0() Op {
	pd := g.pred0()
	return Op{
		SQL: fmt.Sprintf("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t0 WHERE %s", pd.sql),
		Ref: func(r *Ref) *RefResult {
			var count, sum int64
			var minV, maxV int64
			any := false
			each0(r, func(k, v int64, s string) {
				if !pd.fn(k, v, s) {
					return
				}
				count++
				sum += v
				if !any || v < minV {
					minV = v
				}
				if !any || v > maxV {
					maxV = v
				}
				any = true
			})
			row := table.Row{table.Int(count), table.Float(float64(sum))}
			if any {
				row = append(row, table.Int(minV), table.Int(maxV))
			} else {
				row = append(row, table.Int(0), table.Int(0))
			}
			return &RefResult{Cols: []string{"COUNT(*)", "SUM(v)", "MIN(v)", "MAX(v)"}, Rows: []table.Row{row}}
		},
	}
}

func (g *Generator) group0() Op {
	pd := g.pred0()
	// A quarter of grouped queries ride the ORDER BY ... LIMIT pipeline
	// over the grouped output (the group key v is unique per group, so
	// the top-n prefix is deterministic).
	limit := -1
	suffix := ""
	if g.rng.IntN(4) == 0 {
		limit = g.rng.IntN(4) + 1
		suffix = fmt.Sprintf(" ORDER BY v LIMIT %d", limit)
	}
	return Op{
		SQL: fmt.Sprintf("SELECT v, COUNT(*), SUM(k) FROM t0 WHERE %s GROUP BY v%s", pd.sql, suffix),
		Ref: func(r *Ref) *RefResult {
			type acc struct{ count, sum int64 }
			groups := map[int64]*acc{}
			each0(r, func(k, v int64, s string) {
				if !pd.fn(k, v, s) {
					return
				}
				a := groups[v]
				if a == nil {
					a = &acc{}
					groups[v] = a
				}
				a.count++
				a.sum += k
			})
			res := &RefResult{Cols: []string{"group", "COUNT(*)", "SUM(k)"}}
			for v, a := range groups {
				res.Rows = append(res.Rows, table.Row{table.Int(v), table.Int(a.count), table.Float(float64(a.sum))})
			}
			if limit >= 0 {
				sort.Slice(res.Rows, func(i, j int) bool {
					return res.Rows[i][0].AsInt() < res.Rows[j][0].AsInt()
				})
				if len(res.Rows) > limit {
					res.Rows = res.Rows[:limit]
				}
			}
			return res
		},
	}
}

func (g *Generator) join() Op {
	c := g.genVal()
	return Op{
		SQL: fmt.Sprintf("SELECT * FROM t0 JOIN t1 ON k = fk WHERE w < %d", c),
		Ref: func(r *Ref) *RefResult {
			// t0.k is unique by construction, so the hash-join map
			// semantics and nested-loop semantics coincide.
			byK := make(map[int64]table.Row, len(r.t0.Rows))
			for _, row := range r.t0.Rows {
				byK[row[0].AsInt()] = row
			}
			res := &RefResult{Cols: []string{"k", "v", "s", "fk", "w"}}
			for _, fr := range r.t1.Rows {
				if fr[1].AsInt() >= c {
					continue
				}
				if pr, ok := byK[fr[0].AsInt()]; ok {
					res.Rows = append(res.Rows, append(append(table.Row{}, pr...), fr...))
				}
			}
			return res
		},
	}
}

// Canon renders a result as an order-independent multiset string. Row
// order is not part of query semantics — the oblivious operators
// deliberately scatter it — so comparisons sort first.
func Canon(cols []string, rows []table.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	sort.Strings(lines)
	return strings.Join(cols, "|") + "\n" + strings.Join(lines, "\n")
}
