package sql

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"oblidb/internal/core"
	"oblidb/internal/crypt"
	"oblidb/internal/table"
	"oblidb/internal/wal"
)

// TestDuplicateKeyDML pins indexed DML on duplicate keys: a residual
// predicate that singles out one row of a key run must delete or
// rewrite that row, not the first entry of its key. Both storage
// methods that keep an index, with and without a journal, with the key
// range narrowing the statement and without it.
func TestDuplicateKeyDML(t *testing.T) {
	for _, storage := range []string{"USING INDEX(k)", "INDEX ON k"} {
		for _, journaled := range []bool{false, true} {
			for _, keyed := range []bool{true, false} {
				name := fmt.Sprintf("%s/journal=%v/keyed=%v", storage, journaled, keyed)
				t.Run(name, func(t *testing.T) {
					db := core.MustOpen(core.Config{RowsPerBlock: 2})
					var path string
					key := crypt.NewRandomKey()
					if journaled {
						path = filepath.Join(t.TempDir(), "kv.wal")
						l, err := wal.Open(path, key, wal.Options{})
						if err != nil {
							t.Fatal(err)
						}
						defer l.Close()
						if err := db.AttachWAL(l); err != nil {
							t.Fatal(err)
						}
					}
					x := New(db)
					mustExec(t, x, "CREATE TABLE kv (k INTEGER, v INTEGER) "+storage+" CAPACITY = 16")
					mustExec(t, x, "INSERT INTO kv VALUES (1, 1), (1, 2), (1, 3), (2, 5)")
					where := "k = 1 AND "
					if !keyed {
						where = ""
					}
					mustExec(t, x, "DELETE FROM kv WHERE "+where+"v = 3")
					mustExec(t, x, "UPDATE kv SET v = v + 10 WHERE "+where+"v = 2")
					want := "1|1 1|12 2|5"
					checkKV(t, db, want)
					if journaled {
						l, err := wal.Open(path, key, wal.Options{})
						if err != nil {
							t.Fatal(err)
						}
						defer l.Close()
						rec := core.MustOpen(core.Config{RowsPerBlock: 2})
						if err := rec.Recover(l); err != nil {
							t.Fatal(err)
						}
						checkKV(t, rec, want)
					}
				})
			}
		}
	}
}

// checkKV compares every representation of kv against want, a sorted
// space-separated list of k|v pairs.
func checkKV(t *testing.T, db *core.DB, want string) {
	t.Helper()
	tab, err := db.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	render := func(rows []table.Row) string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%d|%d", r[0].AsInt(), r[1].AsInt())
		}
		sort.Strings(out)
		s := ""
		for i, o := range out {
			if i > 0 {
				s += " "
			}
			s += o
		}
		return s
	}
	idx, err := tab.Index().Rows()
	if err != nil {
		t.Fatal(err)
	}
	if got := render(idx); got != want {
		t.Errorf("index holds %s, want %s", got, want)
	}
	if tab.Flat() != nil {
		flat, err := tab.Flat().Rows()
		if err != nil {
			t.Fatal(err)
		}
		if got := render(flat); got != want {
			t.Errorf("flat copy holds %s, want %s", got, want)
		}
	}
}
