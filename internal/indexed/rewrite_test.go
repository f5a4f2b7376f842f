package indexed

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"testing"

	"oblidb/internal/enclave"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/table"
)

// dupTable loads n rows whose keys repeat (k = rng.IntN(keys)), each
// with a distinct payload.
func dupTable(t *testing.T, r, n, keys int) *Table {
	t.Helper()
	tbl := newTable(t, 2*n, Options{RowsPerBlock: r}, nil)
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < n; i++ {
		k := int64(rng.IntN(keys))
		if err := tbl.Insert(table.Row{table.Int(k), table.Str(fmt.Sprintf("d%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// rowSet renders a table's rows as a sorted list.
func rowSet(t *testing.T, tbl *Table) []string {
	t.Helper()
	rows, err := tbl.Rows()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestRewriteRangeAccessCount pins RewriteRange's documented cost,
// h + hops + 2·m: RangeScan's h + hops + m over the same range plus one
// write per in-range entry, whatever the callback changes.
func TestRewriteRangeAccessCount(t *testing.T) {
	for _, r := range []int{1, 4} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			tbl := dupTable(t, r, 200, 60)
			h := tbl.Height()
			for _, rg := range [][2]int64{{10, 10}, {0, 59}, {17, 23}, {-5, 3}, {58, 1000}, {200, 300}} {
				m, err := tbl.RangeScan(rg[0], rg[1], func(table.Row) error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				scanOps := tbl.ops
				hops := scanOps - h - m
				if hops < 0 {
					t.Fatalf("range %v: scan used %d accesses for %d entries at height %d", rg, scanOps, m, h)
				}
				flip := false
				n, err := tbl.RewriteRange(rg[0], rg[1], func(row table.Row) (table.Row, error) {
					flip = !flip // change every other row
					if flip {
						row[1] = table.Str(row[1].AsString() + "x")
					}
					return row, nil
				})
				if err != nil || n != m {
					t.Fatalf("range %v: rewrote %d of %d entries: %v", rg, n, m, err)
				}
				if want := h + hops + 2*m; tbl.ops != want {
					t.Fatalf("range %v: rewrite used %d accesses, want h + hops + 2m = %d + %d + 2·%d", rg, tbl.ops, h, hops, m)
				}
			}
			// A single-leaf tree never hops: the count is 1 + 2m exactly.
			small := dupTable(t, r, 6, 3)
			m, err := small.RewriteRange(0, 2, func(row table.Row) (table.Row, error) { return row, nil })
			if err != nil || small.Height() != 1 || small.ops != 1+2*m {
				t.Fatalf("single leaf: %d accesses for %d entries at height %d: %v", small.ops, m, small.Height(), err)
			}
		})
	}
}

// TestRewriteRangeRewritesInPlace checks the walk's effect: the chosen
// rows change, every other row is intact, and a key change is refused.
func TestRewriteRangeRewritesInPlace(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		tbl := dupTable(t, r, 80, 20)
		var want []string
		rows, _ := tbl.Rows()
		for _, row := range rows {
			k := row[0].AsInt()
			if k >= 5 && k <= 9 && k%2 == 1 {
				row = table.Row{row[0], table.Str("u" + row[1].AsString())}
			}
			want = append(want, row.String())
		}
		sort.Strings(want)
		if _, err := tbl.RewriteRange(5, 9, func(row table.Row) (table.Row, error) {
			if row[0].AsInt()%2 == 1 {
				row[1] = table.Str("u" + row[1].AsString())
			}
			return row, nil
		}); err != nil {
			t.Fatal(err)
		}
		got := rowSet(t, tbl)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("after rewrite:\n got %v\nwant %v", got, want)
		}
		if _, err := tbl.RewriteRange(5, 9, func(row table.Row) (table.Row, error) {
			row[0] = table.Int(99)
			return row, nil
		}); err == nil {
			t.Fatal("RewriteRange accepted a key change")
		}
	})
}

// TestDeleteRowExactEntry deletes single rows out of duplicate-key runs
// by rowID: exactly the named row goes, a stale rowID misses, and both
// pad to Delete's fixed count.
func TestDeleteRowExactEntry(t *testing.T) {
	forPackings(t, func(t *testing.T, r int) {
		tbl := dupTable(t, r, 120, 10)
		want := map[string]int{}
		for _, s := range rowSet(t, tbl) {
			want[s]++
		}
		for k := int64(0); k < 10; k++ {
			var ids []uint32
			var rows []table.Row
			if _, err := tbl.RangeScanIDs(k, k, func(id uint32, row table.Row) error {
				ids = append(ids, id)
				rows = append(rows, row)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(ids) < 2 {
				continue
			}
			victim := len(ids) / 2 // neither the first nor (usually) the last of the run
			h := tbl.Height()
			ok, err := tbl.DeleteRow(k, ids[victim])
			if err != nil || !ok {
				t.Fatalf("DeleteRow(%d, %d): ok=%v err=%v", k, ids[victim], ok, err)
			}
			if tbl.ops != deleteTarget(h) {
				t.Fatalf("DeleteRow used %d accesses, want %d", tbl.ops, deleteTarget(h))
			}
			want[rows[victim].String()]--
			h = tbl.Height()
			if ok, err := tbl.DeleteRow(k, ids[victim]); ok || err != nil {
				t.Fatalf("second DeleteRow of the same entry: ok=%v err=%v", ok, err)
			}
			if tbl.ops != deleteTarget(h) {
				t.Fatalf("missing DeleteRow used %d accesses, want %d", tbl.ops, deleteTarget(h))
			}
		}
		got := map[string]int{}
		for _, s := range rowSet(t, tbl) {
			got[s]++
		}
		for s, n := range want {
			if got[s] != n {
				t.Fatalf("row %s: %d copies, want %d", s, got[s], n)
			}
		}
	})
}

// TestMutationsAllOrNothingUnderFaults injects one store fault at every
// access of an insert, a delete, and an exact-entry delete (splits and
// merges included). A call that fails must leave the rows, the row
// count, and the tree exactly as they were, and a retry must then land.
// A fault in an eviction that runs after the operation's last logical
// access does not fail it; the operation must then have landed whole.
func TestMutationsAllOrNothingUnderFaults(t *testing.T) {
	ops := []struct {
		name string
		do   func(tbl *Table) error
	}{
		{"insert", func(tbl *Table) error { return tbl.Insert(table.Row{table.Int(0), table.Str("new")}) }},
		{"delete", func(tbl *Table) error { _, err := tbl.Delete(2); return err }},
		{"deleteRow", func(tbl *Table) error {
			var id uint32
			var n int
			if _, err := tbl.RangeScanIDs(2, 2, func(rid uint32, _ table.Row) error {
				if n++; n == 2 {
					id = rid
				}
				return nil
			}); err != nil {
				return err
			}
			_, err := tbl.DeleteRow(2, id)
			return err
		}},
	}
	// R = 4 packs other rows beside each record, which an abort must
	// leave intact.
	const r = 4
	for _, op := range ops {
		t.Run(fmt.Sprintf("R=%d/%s", r, op.name), func(t *testing.T) {
			build := func(inj *faultstore.Injector) *Table {
				e := enclave.MustNew(enclave.Config{Key: fixedKey(), Seed: 3, Fault: inj})
				tbl, err := New(e, "t", tblSchema(), 0, 64, Options{RowsPerBlock: r})
				if err != nil {
					t.Fatal(err)
				}
				rows := make([]table.Row, 16)
				for i := range rows {
					rows[i] = table.Row{table.Int(int64(i % 6)), table.Str(fmt.Sprintf("d%d", i))}
				}
				sort.Slice(rows, func(i, j int) bool { return rows[i][0].AsInt() < rows[j][0].AsInt() })
				if err := tbl.BulkLoad(rows); err != nil {
					t.Fatal(err)
				}
				// The load leaves leaves [0 0 0 1 1] [1 2 2 2 3]
				// [3 3 4 4 5 5]. Fill the first, so the insert under
				// test splits it, and take the second to half, so
				// the deletes under test borrow from the first.
				for i := 0; i < 3; i++ {
					if err := tbl.Insert(table.Row{table.Int(0), table.Str(fmt.Sprintf("f%d", i))}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := tbl.Delete(2); err != nil {
					t.Fatal(err)
				}
				return tbl
			}
			// Both runs read the rows before the operation, so their
			// access indices line up.
			counter := faultstore.NewInjector(faultstore.Schedule{})
			ref := build(counter)
			before, rows := rowSet(t, ref), ref.NumRows()
			start := counter.Accesses()
			if err := op.do(ref); err != nil {
				t.Fatal(err)
			}
			end := counter.Accesses()
			if len(ref.dirty.ids) < 3 {
				t.Fatalf("%s wrote %d nodes; the case needs a split or borrow", op.name, len(ref.dirty.ids))
			}
			want := rowSet(t, ref)
			// Every ORAM access spans several store accesses, so a
			// stride of 5 still faults inside nearly every one.
			stride := uint64(5)
			if testing.Short() {
				stride = 17
			}
			for k := start; k < end; k += stride {
				inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
				tbl := build(inj)
				rowSet(t, tbl)
				err := op.do(tbl)
				if err == nil {
					if got := rowSet(t, tbl); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("fault at access %d: call succeeded with %v, want %v", k-start, got, want)
					}
					continue
				}
				if !oberr.Retriable(err) {
					t.Fatalf("fault at access %d: err = %v, want a retriable store fault", k-start, err)
				}
				if got := rowSet(t, tbl); fmt.Sprint(got) != fmt.Sprint(before) || tbl.NumRows() != rows {
					t.Fatalf("fault at access %d changed the table: %d rows %v, want %d rows %v", k-start, tbl.NumRows(), got, rows, before)
				}
				if err := op.do(tbl); err != nil {
					t.Fatalf("retry after fault at access %d: %v", k-start, err)
				}
				if got := rowSet(t, tbl); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("retry after fault at access %d: %v, want %v", k-start, got, want)
				}
			}
		})
	}
}
