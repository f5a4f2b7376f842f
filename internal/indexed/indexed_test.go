package indexed

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/table"
	"oblidb/internal/trace"
)

func tblSchema() *table.Schema {
	return table.MustSchema(
		table.Column{Name: "id", Kind: table.KindInt},
		table.Column{Name: "payload", Kind: table.KindString, Width: 20},
	)
}

func newTable(t *testing.T, maxRows int, opts Options, tr *trace.Tracer) *Table {
	t.Helper()
	e := enclave.MustNew(enclave.Config{Tracer: tr})
	tbl, err := New(e, "t", tblSchema(), 0, maxRows, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	return tbl
}

func trow(k int64) table.Row {
	return table.Row{table.Int(k), table.Str(fmt.Sprintf("p%d", k))}
}

// packings are the record-block packing factors the tree cases run at:
// the paper's one row per block, small packings that put record-block
// and leaf boundaries out of step, and the default.
var packings = []int{1, 2, 3, 4, DefaultRowsPerBlock}

// forPackings runs f as one subtest per packing factor.
func forPackings(t *testing.T, f func(t *testing.T, r int)) {
	for _, r := range packings {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) { f(t, r) })
	}
}

func TestNewValidation(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	s := tblSchema()
	if _, err := New(e, "i", s, 5, 10, Options{}); err == nil {
		t.Error("out-of-range key column accepted")
	}
	if _, err := New(e, "i", s, 1, 10, Options{}); err == nil {
		t.Error("string key column accepted")
	}
	if _, err := New(e, "i", s, 0, 0, Options{}); err == nil {
		t.Error("zero maxRows accepted")
	}
	if _, err := New(e, "i", s, 0, 10, Options{RowsPerBlock: -1}); err == nil {
		t.Error("negative rows per block accepted")
	}
}

func TestInsertLookupAcrossPackings(t *testing.T) {
	for _, r := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tbl := newTable(t, 64, Options{RowsPerBlock: r}, nil)
			for i := int64(0); i < 40; i++ {
				if err := tbl.Insert(trow(i * 2)); err != nil {
					t.Fatalf("insert %d: %v", i, err)
				}
			}
			if tbl.NumRows() != 40 {
				t.Fatalf("NumRows = %d, want 40", tbl.NumRows())
			}
			for i := int64(0); i < 40; i++ {
				row, ok, err := tbl.Lookup(i * 2)
				if err != nil || !ok {
					t.Fatalf("lookup %d: ok=%v err=%v", i*2, ok, err)
				}
				if row[0].AsInt() != i*2 {
					t.Fatalf("lookup %d returned key %d", i*2, row[0].AsInt())
				}
			}
			for _, miss := range []int64{-1, 1, 79, 100} {
				if _, ok, err := tbl.Lookup(miss); err != nil || ok {
					t.Fatalf("lookup miss %d: ok=%v err=%v", miss, ok, err)
				}
			}
		})
	}
}

func TestLookupInto(t *testing.T) {
	tbl := newTable(t, 64, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 30; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make(table.Row, 2)
	for i := int64(0); i < 30; i++ {
		ok, err := tbl.LookupInto(i, dst)
		if err != nil || !ok {
			t.Fatalf("LookupInto(%d): ok=%v err=%v", i, ok, err)
		}
		if dst[0].AsInt() != i || dst[1].AsString() != fmt.Sprintf("p%d", i) {
			t.Fatalf("LookupInto(%d) = %v", i, dst)
		}
	}
	if ok, err := tbl.LookupInto(99, dst); err != nil || ok {
		t.Fatalf("LookupInto miss: ok=%v err=%v", ok, err)
	}
	if _, err := tbl.LookupInto(1, make(table.Row, 3)); err == nil {
		t.Fatal("wrong-width destination accepted")
	}
}

// TestModel runs a random op mix against a map model, exercising splits,
// merges, duplicates, and slot reuse at every packing factor.
func TestModel(t *testing.T) {
	forPackings(t, testModel)
}

func testModel(t *testing.T, r int) {
	tbl := newTable(t, 220, Options{RowsPerBlock: r}, nil)
	rng := rand.New(rand.NewPCG(42, 42))
	counts := map[int64]int{}
	live := 0
	for op := 0; op < 1500; op++ {
		k := int64(rng.IntN(60))
		switch {
		case rng.IntN(3) != 0 && live < 200:
			if err := tbl.Insert(trow(k)); err != nil {
				t.Fatalf("op %d insert(%d): %v", op, k, err)
			}
			counts[k]++
			live++
		case rng.IntN(2) == 0:
			ok, err := tbl.Delete(k)
			if err != nil {
				t.Fatalf("op %d delete(%d): %v", op, k, err)
			}
			if ok != (counts[k] > 0) {
				t.Fatalf("op %d delete(%d) = %v, model has %d", op, k, ok, counts[k])
			}
			if ok {
				counts[k]--
				live--
			}
		default:
			row, ok, err := tbl.Lookup(k)
			if err != nil {
				t.Fatalf("op %d lookup(%d): %v", op, k, err)
			}
			if ok != (counts[k] > 0) {
				t.Fatalf("op %d lookup(%d) = %v, model has %d", op, k, ok, counts[k])
			}
			if ok && row[0].AsInt() != k {
				t.Fatalf("op %d lookup(%d) returned key %d", op, k, row[0].AsInt())
			}
		}
		if tbl.NumRows() != live {
			t.Fatalf("op %d: NumRows = %d, model has %d", op, tbl.NumRows(), live)
		}
	}
	rows, err := tbl.Rows()
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	for _, row := range rows {
		got[row[0].AsInt()]++
	}
	for k, n := range counts {
		if got[k] != n {
			t.Fatalf("key %d: table has %d rows, model has %d", k, got[k], n)
		}
	}
}

// TestUpdateByKey is a single-key in-place update, which RewriteRange
// over [k, k] performs.
func TestUpdateByKey(t *testing.T) {
	tbl := newTable(t, 64, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 20; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tbl.RewriteRange(7, 7, func(r table.Row) (table.Row, error) {
		r[1] = table.Str("updated")
		return r, nil
	})
	if err != nil || n != 1 {
		t.Fatalf("update: rewrote %d err=%v", n, err)
	}
	row, _, err := tbl.Lookup(7)
	if err != nil || row[1].AsString() != "updated" {
		t.Fatalf("after update: row=%v err=%v", row, err)
	}
	if _, err := tbl.RewriteRange(7, 7, func(r table.Row) (table.Row, error) {
		r[0] = table.Int(8)
		return r, nil
	}); err == nil {
		t.Fatal("key change accepted")
	}
	if n, err := tbl.RewriteRange(99, 99, func(r table.Row) (table.Row, error) { return r, nil }); err != nil || n != 0 {
		t.Fatalf("update miss: rewrote %d err=%v", n, err)
	}
}

func TestRangeScanOrdered(t *testing.T) {
	tbl := newTable(t, 128, Options{RowsPerBlock: 4}, nil)
	perm := rand.New(rand.NewPCG(9, 9)).Perm(100)
	for _, k := range perm {
		if err := tbl.Insert(trow(int64(k))); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	n, err := tbl.RangeScan(25, 74, func(r table.Row) error {
		got = append(got, r[0].AsInt())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || len(got) != 50 {
		t.Fatalf("range returned %d rows (count %d), want 50", len(got), n)
	}
	for i, k := range got {
		if k != int64(25+i) {
			t.Fatalf("position %d: key %d, want %d", i, k, 25+i)
		}
	}
	if n, err := tbl.RangeScan(1000, 2000, func(table.Row) error { return nil }); n != 0 || err != nil {
		t.Fatalf("out-of-range scan returned %d rows: %v", n, err)
	}
	if n, err := tbl.RangeScan(50, 20, func(table.Row) error { return nil }); n != 0 || err != nil {
		t.Fatalf("inverted scan returned %d rows: %v", n, err)
	}
	rows, err := tbl.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("Rows returned %d rows, want 100", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("Rows position %d: key %d", i, r[0].AsInt())
		}
	}
}

func TestScanRawMatchesRangeScan(t *testing.T) {
	tbl := newTable(t, 128, Options{RowsPerBlock: 4}, nil)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 90; i++ {
		if err := tbl.Insert(trow(int64(rng.IntN(40)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := tbl.Delete(int64(rng.IntN(40))); err != nil {
			t.Fatal(err)
		}
	}
	want := map[int64]int{}
	if _, err := tbl.RangeScan(minInt64, maxInt64, func(r table.Row) error {
		want[r[0].AsInt()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := map[int64]int{}
	if err := tbl.ScanRaw(func(r table.Row) error {
		got[r[0].AsInt()]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ScanRaw saw %d keys, RangeScan %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d: ScanRaw %d, RangeScan %d", k, got[k], n)
		}
	}
}

// TestBulkLoadMatchesIncremental checks that a bulk-built tree holds
// the same rows, in the same order, as one grown by padded inserts, at
// every packing and at sizes from one row to several tree levels.
func TestBulkLoadMatchesIncremental(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		for _, n := range []int{1, 5, 13, 150} {
			mk := func(bulk bool) []table.Row {
				tbl := newTable(t, n+50, Options{RowsPerBlock: r}, nil)
				rng := rand.New(rand.NewPCG(uint64(n), 77))
				var rows []table.Row
				for i := 0; i < n; i++ {
					rows = append(rows, trow(int64(rng.IntN(500))))
				}
				if bulk {
					if err := tbl.BulkLoad(rows); err != nil {
						t.Fatal(err)
					}
				} else {
					for _, row := range rows {
						if err := tbl.Insert(row); err != nil {
							t.Fatal(err)
						}
					}
				}
				out, err := tbl.Rows()
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			a, b := mk(true), mk(false)
			if len(a) != n || len(b) != n {
				t.Fatalf("n=%d: bulk %d rows, incremental %d", n, len(a), len(b))
			}
			for i := range a {
				if a[i][0].AsInt() != b[i][0].AsInt() {
					t.Fatalf("n=%d row %d: bulk key %d, incremental %d", n, i, a[i][0].AsInt(), b[i][0].AsInt())
				}
			}
		}

		// Bulk-loaded tables must keep absorbing mutations.
		tbl := newTable(t, 200, Options{RowsPerBlock: r}, nil)
		var rows []table.Row
		for i := int64(0); i < 100; i++ {
			rows = append(rows, trow(i))
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		for i := int64(100); i < 140; i++ {
			if err := tbl.Insert(trow(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 30; i++ {
			if ok, err := tbl.Delete(i * 2); err != nil || !ok {
				t.Fatalf("delete %d after bulk: ok=%v err=%v", i*2, ok, err)
			}
		}
		if tbl.NumRows() != 110 {
			t.Fatalf("NumRows = %d, want 110", tbl.NumRows())
		}
		if n, err := tbl.RangeScan(minInt64, maxInt64, func(table.Row) error { return nil }); n != 110 || err != nil {
			t.Fatalf("range scan found %d rows: %v", n, err)
		}
		seen := 0
		if err := tbl.ScanRaw(func(table.Row) error { seen++; return nil }); err != nil || seen != 110 {
			t.Fatalf("raw scan found %d rows: %v", seen, err)
		}
	})
}

// TestBulkLoadEdgeCases covers the loads BulkLoad must refuse or treat
// as no-ops, and a bulk-built tree deleted back down to height 0.
func TestBulkLoadEdgeCases(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		empty := newTable(t, 8, Options{RowsPerBlock: r}, nil)
		if err := empty.BulkLoad(nil); err != nil {
			t.Fatalf("empty bulk load: %v", err)
		}
		if empty.NumRows() != 0 || empty.Height() != 0 {
			t.Fatalf("empty bulk load left rows=%d height=%d", empty.NumRows(), empty.Height())
		}
		if _, ok, err := empty.Lookup(1); ok || err != nil {
			t.Fatalf("lookup after empty bulk load: ok=%v err=%v", ok, err)
		}

		nonEmpty := newTable(t, 50, Options{RowsPerBlock: r}, nil)
		if err := nonEmpty.Insert(trow(1)); err != nil {
			t.Fatal(err)
		}
		if err := nonEmpty.BulkLoad([]table.Row{trow(2)}); err == nil {
			t.Fatal("bulk load into a non-empty table accepted")
		}

		small := newTable(t, 4, Options{RowsPerBlock: r}, nil)
		over := make([]table.Row, 5)
		for i := range over {
			over[i] = trow(int64(i))
		}
		if err := small.BulkLoad(over); err == nil {
			t.Fatal("over-capacity bulk load accepted")
		}

		tbl := newTable(t, 200, Options{RowsPerBlock: r}, nil)
		rows := make([]table.Row, 120)
		for i := range rows {
			rows[i] = trow(int64(i))
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 120; i++ {
			if ok, err := tbl.Delete(i); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
			}
		}
		if tbl.NumRows() != 0 || tbl.Height() != 0 {
			t.Fatalf("rows=%d height=%d after deleting all", tbl.NumRows(), tbl.Height())
		}
		if _, ok, err := tbl.Lookup(5); ok || err != nil {
			t.Fatalf("lookup after deleting all: ok=%v err=%v", ok, err)
		}
		if err := tbl.Insert(trow(7)); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tbl.Lookup(7); !ok || err != nil {
			t.Fatalf("lookup after re-insert: ok=%v err=%v", ok, err)
		}
	})
}

// TestLookupEmptyTable is the height-0 regression: every point
// operation on an empty table is a miss, not an error, and still pays
// its operation's full padding target. RewriteRange, like RangeScan,
// pays for the segment it scans, which here is empty.
func TestLookupEmptyTable(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		tbl := newTable(t, 8, Options{RowsPerBlock: r}, nil)
		check := func(op string, ok bool, err error, target int) {
			t.Helper()
			if ok || err != nil {
				t.Fatalf("%s on empty table: ok=%v err=%v", op, ok, err)
			}
			if tbl.ops != target {
				t.Fatalf("%s on empty table used %d ORAM operations, want %d", op, tbl.ops, target)
			}
		}
		_, ok, err := tbl.Lookup(1)
		check("Lookup", ok, err, lookupTarget(0))
		ok, err = tbl.LookupInto(1, make(table.Row, 2))
		check("LookupInto", ok, err, lookupTarget(0))
		n, err := tbl.RewriteRange(1, 1, func(r table.Row) (table.Row, error) { return r, nil })
		check("RewriteRange", n != 0, err, 0)
		ok, err = tbl.Delete(1)
		check("Delete", ok, err, deleteTarget(0))
		if n, err := tbl.RangeScan(minInt64, maxInt64, func(table.Row) error { return nil }); n != 0 || err != nil {
			t.Fatalf("RangeScan on empty table: n=%d err=%v", n, err)
		}
	})
}

// TestDuplicateKeys stores one key until its duplicates span several
// leaves, then deletes them all: the tree shrinks back to height 0 and
// keeps answering misses.
func TestDuplicateKeys(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		tbl := newTable(t, 64, Options{RowsPerBlock: r}, nil)
		for i := 0; i < 20; i++ {
			if err := tbl.Insert(table.Row{table.Int(7), table.Str(fmt.Sprintf("d%d", i))}); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := tbl.RangeScan(7, 7, func(table.Row) error { return nil }); n != 20 || err != nil {
			t.Fatalf("range scan found %d duplicates, want 20: %v", n, err)
		}
		for i := 0; i < 20; i++ {
			if ok, err := tbl.Delete(7); err != nil || !ok {
				t.Fatalf("delete %d: ok=%v err=%v", i, ok, err)
			}
		}
		if ok, err := tbl.Delete(7); ok || err != nil {
			t.Fatalf("delete of a vanished key: ok=%v err=%v", ok, err)
		}
		if tbl.Height() != 0 || tbl.NumRows() != 0 {
			t.Fatalf("height %d, rows %d after emptying", tbl.Height(), tbl.NumRows())
		}
		if _, ok, err := tbl.Lookup(7); ok || err != nil {
			t.Fatalf("lookup after emptying: ok=%v err=%v", ok, err)
		}
	})
}

// TestDeleteAcrossLeafBoundary makes duplicates straddle leaves, then
// deletes one key's run: the first match can sit in the next leaf, which
// exercises the peek-and-re-descend path.
func TestDeleteAcrossLeafBoundary(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		tbl := newTable(t, 128, Options{RowsPerBlock: r}, nil)
		for i := 0; i < 30; i++ {
			for _, k := range []int64{1, 2} {
				if err := tbl.Insert(table.Row{table.Int(k), table.Str("x")}); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 30; i++ {
			if ok, err := tbl.Delete(2); err != nil || !ok {
				t.Fatalf("delete 2 #%d: ok=%v err=%v", i, ok, err)
			}
		}
		if n, err := tbl.RangeScan(1, 1, func(table.Row) error { return nil }); n != 30 || err != nil {
			t.Fatalf("%d rows with key 1 remain, want 30: %v", n, err)
		}
		if _, ok, err := tbl.Lookup(2); ok || err != nil {
			t.Fatalf("lookup of the deleted key: ok=%v err=%v", ok, err)
		}
		if tbl.NumRows() != 30 {
			t.Fatalf("NumRows = %d, want 30", tbl.NumRows())
		}
	})
}

// TestFixedAccessCounts is the §3.2 padding property counted in ORAM
// operations: every operation performs exactly its public target, a
// function of the tree height alone, whether it hits or misses, splits,
// merges, or borrows. Under Ring ORAM the untrusted accesses per
// operation also follow the eviction and reshuffle schedule, so
// trace-level uniformity is pinned separately
// (TestSameShapeTracesIdentical).
func TestFixedAccessCounts(t *testing.T) {
	for _, r := range []int{1, 4} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tbl := newTable(t, 300, Options{RowsPerBlock: r}, nil)
			check := func(op string, k int64, err error, target int) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s(%d): %v", op, k, err)
				}
				if tbl.ops != target {
					t.Fatalf("%s(%d) at height %d used %d ORAM operations, want %d", op, k, tbl.Height(), tbl.ops, target)
				}
			}
			rng := rand.New(rand.NewPCG(3, 3))
			keys := make([]int64, 260)
			for i := range keys {
				keys[i] = int64(rng.IntN(100))
				hPre := tbl.Height()
				check("insert", keys[i], tbl.Insert(trow(keys[i])), insertTarget(hPre, tbl.Height()))
			}

			h := tbl.Height()
			dst := make(table.Row, 2)
			for _, k := range []int64{keys[0], keys[259], -5, 1000} { // hits, then misses
				_, _, err := tbl.Lookup(k)
				check("lookup", k, err, lookupTarget(h))
				_, err = tbl.LookupInto(k, dst)
				check("lookupInto", k, err, lookupTarget(h))
				// An in-place update costs its range's scan plus one
				// write per entry (TestRewriteRangeAccessCount).
				m, err := tbl.RangeScan(k, k, func(table.Row) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				scan := tbl.ops
				_, err = tbl.RewriteRange(k, k, func(r table.Row) (table.Row, error) { return r, nil })
				check("update", k, err, scan+m)
			}

			// Delete everything, each hit followed by a miss, so merges
			// and root collapses happen all the way down to height 0.
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			for _, k := range keys {
				for _, d := range []int64{k, 1000} {
					hPre := tbl.Height()
					_, err := tbl.Delete(d)
					check("delete", d, err, deleteTarget(hPre))
				}
			}
			if tbl.Height() != 0 {
				t.Fatalf("height %d after deleting every row", tbl.Height())
			}
			_, _, err := tbl.Lookup(0)
			check("lookup", 0, err, lookupTarget(0))
		})
	}
}

func TestFullTable(t *testing.T) {
	tbl := newTable(t, 10, Options{RowsPerBlock: 4}, nil)
	for i := int64(0); i < 10; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(trow(10)); err == nil {
		t.Fatal("insert into full table accepted")
	}
	// Delete + insert reuses the freed slot.
	if _, err := tbl.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(trow(99)); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
}

// fixedKey pins the AES key so two enclaves seal identically-shaped state
// with the same randomness.
func fixedKey() []byte {
	k := make([]byte, 32)
	for i := range k {
		k[i] = byte(i*7 + 1)
	}
	return k
}

func tracedTable(t *testing.T, n int, keyOf func(int) int64, payload string) (*Table, *trace.Tracer) {
	t.Helper()
	tr := trace.New()
	tr.Enable()
	e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11, Tracer: tr})
	tbl, err := New(e, "t", tblSchema(), 0, n, Options{RowsPerBlock: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tbl.Close)
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = table.Row{table.Int(keyOf(i)), table.Str(payload)}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	return tbl, tr
}

// TestSameShapeTracesIdentical pins the indexed path's obliviousness on
// satellite-1 seeding: two tables with the same public shape (row count,
// op sequence, lookup ranks) but different keys and payloads produce
// byte-identical untrusted access traces.
func TestSameShapeTracesIdentical(t *testing.T) {
	const n = 600
	a, trA := tracedTable(t, n, func(i int) int64 { return int64(2 * i) }, "aaaa")
	b, trB := tracedTable(t, n, func(i int) int64 { return int64(3*i + 1) }, "zz")

	if fa, fb := trA.Fingerprint(), trB.Fingerprint(); fa != fb {
		t.Fatalf("bulk-load traces differ for same-shape tables:\n%s", trace.Diff(trA, trB))
	}
	// Same-rank point lookups: the descent visits the same node ids, the
	// record access the same block, the ORAM the same (seeded) paths.
	for _, rank := range []int{0, 1, 57, 300, 599} {
		trA.Reset()
		trB.Reset()
		if _, ok, err := a.Lookup(int64(2 * rank)); err != nil || !ok {
			t.Fatalf("lookup rank %d in a: ok=%v err=%v", rank, ok, err)
		}
		if _, ok, err := b.Lookup(int64(3*rank + 1)); err != nil || !ok {
			t.Fatalf("lookup rank %d in b: ok=%v err=%v", rank, ok, err)
		}
		if fa, fb := trA.Fingerprint(), trB.Fingerprint(); fa != fb {
			t.Fatalf("lookup traces differ at rank %d:\n%s", rank, trace.Diff(trA, trB))
		}
	}
}

// TestLookupCostGrowsLogarithmically pins the indexed method's asymptotic
// advantage: the untrusted block accesses of one point lookup grow like
// (height+2)·AccessesPerOp — logarithmically in the table size — while a
// flat scan grows linearly.
func TestLookupCostGrowsLogarithmically(t *testing.T) {
	cost := func(n int) float64 {
		tr := trace.New()
		tr.EnableCounts()
		e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11, Tracer: tr})
		tbl, err := New(e, "t", tblSchema(), 0, n, Options{RowsPerBlock: 4, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		defer tbl.Close()
		rows := make([]table.Row, n)
		for i := range rows {
			rows[i] = table.Row{table.Int(int64(i)), table.Str("x")}
		}
		if err := tbl.BulkLoad(rows); err != nil {
			t.Fatal(err)
		}
		// Average over a multiple of the eviction rate so scheduled
		// evictions amortize identically at every size.
		const reps = 64
		before := tr.TotalCount()
		for i := 0; i < reps; i++ {
			if _, ok, err := tbl.Lookup(int64((i * 97) % n)); err != nil || !ok {
				t.Fatalf("lookup: ok=%v err=%v", ok, err)
			}
		}
		return float64(tr.TotalCount()-before) / reps
	}

	sizes := []int{200, 3200, 12800}
	costs := make([]float64, len(sizes))
	for i, n := range sizes {
		costs[i] = cost(n)
		if costs[i] <= 0 {
			t.Fatalf("size %d: nonpositive lookup cost %v", n, costs[i])
		}
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] < costs[i-1]*0.8 {
			t.Fatalf("lookup cost shrank with size: %v at %v", costs, sizes)
		}
	}
	// 64× more rows must cost far less than 64× more accesses — allow up
	// to 6×, generous for (h+2)·AccessesPerOp growth.
	if ratio := costs[len(costs)-1] / costs[0]; ratio > 6 {
		t.Fatalf("lookup cost grew %0.1f× over a 64× size increase (%v at %v)", ratio, costs, sizes)
	}
}

// TestLookupIntoZeroAlloc pins the indexed point-lookup hot path: after
// warmup, LookupInto allocates nothing — the ORAM access, padding dummies,
// node decoding, and record decoding all run in reused scratch.
func TestLookupIntoZeroAlloc(t *testing.T) {
	e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 11})
	tbl, err := New(e, "t", tblSchema(), 0, 500, Options{RowsPerBlock: 8, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	rows := make([]table.Row, 500)
	for i := range rows {
		rows[i] = table.Row{table.Int(int64(i)), table.Str("payload")}
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	dst := make(table.Row, 2)
	// Warm every scratch buffer and a few eviction cycles.
	for i := 0; i < 64; i++ {
		if _, err := tbl.LookupInto(int64(i%500), dst); err != nil {
			t.Fatal(err)
		}
	}
	k := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ok, err := tbl.LookupInto(k%500, dst)
		if err != nil || !ok {
			t.Fatalf("LookupInto(%d): ok=%v err=%v", k%500, ok, err)
		}
		k += 37
	})
	if allocs != 0 {
		t.Fatalf("LookupInto allocates %v times per run, want 0", allocs)
	}
}

func TestRecursiveORAMTable(t *testing.T) {
	e := enclave.MustNew(enclave.Config{})
	tbl, err := New(e, "t", tblSchema(), 0, 120, Options{RowsPerBlock: 4, RecursiveORAM: true})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if tbl.PosMapStore() == nil {
		t.Fatal("recursive table has no untrusted position-map store")
	}
	for i := int64(0); i < 80; i++ {
		if err := tbl.Insert(trow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 80; i++ {
		if _, ok, err := tbl.Lookup(i); err != nil || !ok {
			t.Fatalf("lookup %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestHeightGrowsPolylog sanity-checks the public height function.
func TestHeightGrowsPolylog(t *testing.T) {
	tbl := newTable(t, 3000, Options{RowsPerBlock: 8}, nil)
	rows := make([]table.Row, 3000)
	for i := range rows {
		rows[i] = trow(int64(i))
	}
	if err := tbl.BulkLoad(rows); err != nil {
		t.Fatal(err)
	}
	if h := tbl.Height(); h < 3 || h > 7 {
		t.Fatalf("height %d for 3000 rows at fanout %d", h, fanout)
	}
}
