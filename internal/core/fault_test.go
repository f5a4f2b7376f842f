package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"oblidb/internal/crypt"
	"oblidb/internal/faultstore"
	"oblidb/internal/oberr"
	"oblidb/internal/table"
	"oblidb/internal/trace"
	"oblidb/internal/wal"
)

// faultStatements is the containment workload: every mutation kind,
// DDL included, as individually retriable statements. base varies the
// values (never the shape) between runs.
func faultStatements(base int64) []func(*DB) error {
	s := walTestSchema()
	stmts := []func(*DB) error{
		func(db *DB) error {
			_, err := db.CreateTable("ft", s, TableOptions{Capacity: 32})
			return err
		},
	}
	for b := int64(0); b < 3; b++ {
		b := b
		stmts = append(stmts, func(db *DB) error {
			rows := make([]table.Row, 0, 4)
			for i := int64(0); i < 4; i++ {
				v := base + 4*b + i
				rows = append(rows, table.Row{table.Int(v), table.Str(fmt.Sprintf("r%d", v))})
			}
			return db.Insert("ft", rows...)
		})
	}
	stmts = append(stmts,
		func(db *DB) error {
			_, err := db.Update("ft",
				func(r table.Row) bool { return r[0].AsInt() < base+4 },
				func(r table.Row) table.Row { return table.Row{r[0], table.Str("upd")} }, nil)
			return err
		},
		func(db *DB) error {
			_, err := db.Delete("ft",
				func(r table.Row) bool { return r[0].AsInt() >= base+9 }, nil)
			return err
		},
		func(db *DB) error {
			_, err := db.CreateTable("scratch", s, TableOptions{Capacity: 16})
			return err
		},
		func(db *DB) error {
			return db.Insert("scratch", table.Row{table.Int(base), table.Str("gone")})
		},
		func(db *DB) error { return db.DropTable("scratch") },
		func(db *DB) error {
			return db.Insert("ft", table.Row{table.Int(base + 50), table.Str("tail")})
		},
	)
	return stmts
}

// runFaultWorkload drives the containment workload on a journaled
// engine under the given injector, retrying each statement on typed
// retriable errors. It returns the final row snapshot and the journal
// path for recovery cross-checks.
func runFaultWorkload(t *testing.T, key []byte, inj *faultstore.Injector, base int64) (rows []string, walPath string, accesses uint64) {
	t.Helper()
	return runFaultStatements(t, key, inj, faultStatements(base))
}

// runFaultStatements is runFaultWorkload over any statement list that
// builds table ft.
func runFaultStatements(t *testing.T, key []byte, inj *faultstore.Injector, stmts []func(*DB) error) (rows []string, walPath string, accesses uint64) {
	t.Helper()
	walPath = filepath.Join(t.TempDir(), "fault.wal")
	db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Fault: inj})
	l := openTestLog(t, walPath, key, wal.Options{})
	if err := db.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	for si, stmt := range stmts {
		for attempt := 0; ; attempt++ {
			err := stmt(db)
			if err == nil {
				break
			}
			if !oberr.Retriable(err) {
				t.Fatalf("statement %d failed with a non-retriable error: %v", si, err)
			}
			if attempt > 4 {
				t.Fatalf("statement %d still failing after %d attempts: %v", si, attempt, err)
			}
		}
		if berr := db.Broken(); berr != nil {
			t.Fatalf("single-fault workload broke the engine at statement %d: %v", si, berr)
		}
	}
	// The access count is taken before the snapshot read: the sweep must
	// only target accesses the (retriable) statements perform, not the
	// test's own verification Select.
	accesses = inj.Accesses()
	return snapshotRows(t, db, "ft"), walPath, accesses
}

// TestFaultAtEveryAccessIndexContained is the containment pin: inject
// one transient store fault at every access index of a workload and
// require the final state — and the state a fresh engine recovers from
// the journal — to match the fault-free reference exactly. A fault
// mid-mutation must roll back via the undo log and surface as a typed
// retriable error; a retry must then land the statement as if the
// fault never happened.
func TestFaultAtEveryAccessIndexContained(t *testing.T) {
	key := crypt.NewRandomKey()
	counter := faultstore.NewInjector(faultstore.Schedule{})
	ref, _, n := runFaultWorkload(t, key, counter, 100)
	if n == 0 {
		t.Fatal("workload performed no store accesses")
	}
	stride := uint64(1)
	if testing.Short() {
		stride = n/40 + 1
	}
	for k := uint64(0); k < n; k += stride {
		inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
		got, walPath, _ := runFaultWorkload(t, key, inj, 100)
		if inj.Injected() != 1 {
			t.Fatalf("fault at access %d never fired (injected=%d)", k, inj.Injected())
		}
		if rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the engine:\n got %v\nwant %v", k, got, ref)
		}
		// The journal must describe the same state: recover it into a
		// fresh, fault-free engine and compare again.
		l := openTestLog(t, walPath, key, wal.Options{})
		rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4})
		if err := rec.Recover(l); err != nil {
			t.Fatalf("fault at access %d left an unrecoverable journal: %v", k, err)
		}
		if got := snapshotRows(t, rec, "ft"); rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the journal:\n got %v\nwant %v", k, got, ref)
		}
	}
}

// TestFaultTraceIdentity pins the obliviousness of injection and
// retries: two workloads with the same statement shapes but different
// data, run under the same fault schedule with the same retry policy,
// must emit byte-identical traces — the fault decisions key on access
// index only, so the truncation points and retries line up exactly.
func TestFaultTraceIdentity(t *testing.T) {
	key := crypt.NewRandomKey()
	fingerprint := func(base int64) [32]byte {
		tr := trace.New()
		inj := faultstore.NewInjector(faultstore.Schedule{Seed: 99, ReadFault: 0.01, WriteFault: 0.01})
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4, Tracer: tr, Fault: inj})
		l := openTestLog(t, filepath.Join(t.TempDir(), "ti.wal"), key, wal.Options{})
		if err := db.AttachWAL(l); err != nil {
			t.Fatal(err)
		}
		for si, stmt := range faultStatements(base) {
			for attempt := 0; ; attempt++ {
				err := stmt(db)
				if err == nil {
					break
				}
				if !oberr.Retriable(err) {
					t.Fatalf("statement %d: non-retriable %v", si, err)
				}
				if attempt > 50 {
					t.Fatalf("statement %d: no progress after %d attempts", si, attempt)
				}
			}
		}
		return tr.Fingerprint()
	}
	if fingerprint(100) != fingerprint(7700) {
		t.Fatal("same-shape/different-data workloads diverged their traces under one fault schedule")
	}
}

// updateKeepingKey runs an UPDATE down the route the plan interpreter
// picks when the SET list leaves the key column alone: a key-ranged one
// rewrites the index rows in place.
func updateKeepingKey(db *DB, name string, pred table.Pred, upd table.Updater, key *KeyRange) (int, error) {
	db.lockWrite()
	defer db.mu.Unlock()
	return db.updateRows(name, pred, upd, key, true)
}

// indexFaultStatements is faultStatements' index-only workload: inserts
// with duplicate keys, a key-ranged in-place UPDATE whose residual
// predicate rejects the first row of a key run, a key-moving UPDATE, and a
// DELETE that singles out the second row of a duplicate-key run.
func indexFaultStatements(base int64) []func(*DB) error {
	s := walTestSchema()
	stmts := []func(*DB) error{
		func(db *DB) error {
			_, err := db.CreateTable("ft", s, TableOptions{Kind: KindIndexed, KeyColumn: "id", Capacity: 16})
			return err
		},
	}
	for b := int64(0); b < 2; b++ {
		b := b
		stmts = append(stmts, func(db *DB) error {
			rows := make([]table.Row, 0, 4)
			for i := int64(0); i < 4; i++ {
				n := 4*b + i
				rows = append(rows, table.Row{table.Int(base + n/2), table.Str(fmt.Sprintf("r%d", base+n))})
			}
			return db.Insert("ft", rows...)
		})
	}
	skip := table.Str(fmt.Sprintf("r%d", base+2))
	stmts = append(stmts,
		func(db *DB) error {
			_, err := updateKeepingKey(db, "ft",
				func(r table.Row) bool { return !r[1].Equal(skip) },
				func(r table.Row) table.Row { r[1] = table.Str("u" + r[1].AsString()); return r },
				&KeyRange{Lo: base + 1, Hi: base + 2})
			return err
		},
		func(db *DB) error {
			_, err := db.Update("ft",
				func(r table.Row) bool { return r[1].AsString() == fmt.Sprintf("r%d", base+7) },
				func(r table.Row) table.Row { return table.Row{table.Int(base + 9), r[1]} }, Point(base+3))
			return err
		},
		func(db *DB) error {
			_, err := db.Delete("ft",
				func(r table.Row) bool { return r[1].AsString() == fmt.Sprintf("r%d", base+1) }, Point(base))
			return err
		},
		func(db *DB) error {
			return db.Insert("ft", table.Row{table.Int(base), table.Str("tail")})
		},
	)
	return stmts
}

// TestFaultInIndexOnlyDMLContained is
// TestFaultAtEveryAccessIndexContained on an index-only table: one
// store fault per run, engine state and journal-recovered state both
// compared against the fault-free run. The sweep covers the statements
// after the loading inserts (index inserts on their own are swept by
// internal/indexed's TestMutationsAllOrNothingUnderFaults), at a stride
// of 3: every ORAM access reads one slot per level of the ORAM tree
// (seven levels here), so each is still faulted, while the runs stay
// affordable under -race.
func TestFaultInIndexOnlyDMLContained(t *testing.T) {
	key := crypt.NewRandomKey()
	stmts := indexFaultStatements(100)
	_, _, from := runFaultStatements(t, key, faultstore.NewInjector(faultstore.Schedule{}), stmts[:3])
	ref, _, n := runFaultStatements(t, key, faultstore.NewInjector(faultstore.Schedule{}), stmts)
	if want := []string{`100|"tail"`, `100|"r100"`, `101|"r102"`, `101|"ur103"`, `102|"ur104"`, `102|"ur105"`, `103|"r106"`, `109|"r107"`}; rowsDiffer(sorted(want), ref) {
		t.Fatalf("fault-free run gave %v, want %v", ref, sorted(want))
	}
	stride := uint64(3)
	if testing.Short() {
		stride = (n-from)/40 + 1
	}
	for k := from; k < n; k += stride {
		inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
		got, walPath, _ := runFaultStatements(t, key, inj, indexFaultStatements(100))
		if inj.Injected() != 1 {
			t.Fatalf("fault at access %d never fired (injected=%d)", k, inj.Injected())
		}
		if rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the engine:\n got %v\nwant %v", k, got, ref)
		}
		l := openTestLog(t, walPath, key, wal.Options{})
		rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 4})
		if err := rec.Recover(l); err != nil {
			t.Fatalf("fault at access %d left an unrecoverable journal: %v", k, err)
		}
		if got := snapshotRows(t, rec, "ft"); rowsDiffer(ref, got) {
			t.Fatalf("fault at access %d diverged the journal:\n got %v\nwant %v", k, got, ref)
		}
	}
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestFaultedUpdateKeepsRowEqualToPostImage pins undo of a partly
// applied UPDATE when an untouched row already equals a post-image:
// rows (1,'upd') and (1,'x'), then SET name = 'upd' WHERE name = 'x'.
// A fault at any access of the update, followed by a retry, must leave
// both rows. The seed's undo cleared post-images by value and so could
// delete the untouched (1,'upd') instead.
func TestFaultedUpdateKeepsRowEqualToPostImage(t *testing.T) {
	key := crypt.NewRandomKey()
	run := func(inj *faultstore.Injector) (rows []string, walPath string, before, after uint64) {
		walPath = filepath.Join(t.TempDir(), "upd.wal")
		db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 1, Fault: inj})
		if err := db.AttachWAL(openTestLog(t, walPath, key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable("ft", walTestSchema(), TableOptions{Capacity: 4}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("ft", table.Row{table.Int(1), table.Str("upd")}, table.Row{table.Int(1), table.Str("x")}); err != nil {
			t.Fatal(err)
		}
		before = inj.Accesses()
		for attempt := 0; ; attempt++ {
			_, err := db.Update("ft",
				func(r table.Row) bool { return r[1].AsString() == "x" },
				func(r table.Row) table.Row { r[1] = table.Str("upd"); return r }, nil)
			if err == nil {
				break
			}
			if !oberr.Retriable(err) || attempt > 2 {
				t.Fatalf("update: %v", err)
			}
		}
		after = inj.Accesses()
		if berr := db.Broken(); berr != nil {
			t.Fatal(berr)
		}
		return snapshotRows(t, db, "ft"), walPath, before, after
	}
	ref, _, lo, hi := run(faultstore.NewInjector(faultstore.Schedule{}))
	if want := []string{`1|"upd"`, `1|"upd"`}; rowsDiffer(want, ref) {
		t.Fatalf("fault-free run gave %v, want %v", ref, want)
	}
	for k := lo; k < hi; k++ {
		inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
		got, walPath, _, _ := run(inj)
		if rowsDiffer(ref, got) {
			t.Fatalf("fault at update access %d left %v, want %v", k-lo, got, ref)
		}
		rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: 1})
		if err := rec.Recover(openTestLog(t, walPath, key, wal.Options{})); err != nil {
			t.Fatal(err)
		}
		if got := snapshotRows(t, rec, "ft"); rowsDiffer(ref, got) {
			t.Fatalf("fault at update access %d: journal recovers %v, want %v", k-lo, got, ref)
		}
	}
}

// TestFaultedInsertKeepsEqualRow pins undo of a faulted INSERT of a row
// the flat table already holds: (1,'a') is there, INSERT (1,'a') again.
// A fault at any access of the insert, followed by a retry, must leave
// two copies, for the appending and the oblivious (scanning) insert.
// The undo used to record a flat insert before it applied, so a fault
// before the row landed made rollback delete the copy already there.
func TestFaultedInsertKeepsEqualRow(t *testing.T) {
	key := crypt.NewRandomKey()
	row := table.Row{table.Int(1), table.Str("a")}
	for _, obliv := range []bool{false, true} {
		for _, r := range []int{1, 4} {
			t.Run(fmt.Sprintf("oblivious=%v/R=%d", obliv, r), func(t *testing.T) {
				run := func(inj *faultstore.Injector) (rows []string, walPath string, before, after uint64) {
					walPath = filepath.Join(t.TempDir(), "ins.wal")
					db := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: r, Fault: inj})
					if err := db.AttachWAL(openTestLog(t, walPath, key, wal.Options{})); err != nil {
						t.Fatal(err)
					}
					if _, err := db.CreateTable("ft", walTestSchema(), TableOptions{Capacity: 8, ObliviousInserts: obliv}); err != nil {
						t.Fatal(err)
					}
					if err := db.Insert("ft", row); err != nil {
						t.Fatal(err)
					}
					before = inj.Accesses()
					for attempt := 0; ; attempt++ {
						err := db.Insert("ft", row)
						if err == nil {
							break
						}
						if !oberr.Retriable(err) || attempt > 2 {
							t.Fatalf("insert: %v", err)
						}
					}
					after = inj.Accesses()
					if berr := db.Broken(); berr != nil {
						t.Fatal(berr)
					}
					return snapshotRows(t, db, "ft"), walPath, before, after
				}
				ref, _, lo, hi := run(faultstore.NewInjector(faultstore.Schedule{}))
				if want := []string{`1|"a"`, `1|"a"`}; rowsDiffer(want, ref) {
					t.Fatalf("fault-free run gave %v, want %v", ref, want)
				}
				for k := lo; k < hi; k++ {
					inj := faultstore.NewInjector(faultstore.Schedule{FailAt: []uint64{k}, MaxFaults: 1})
					got, walPath, _, _ := run(inj)
					if rowsDiffer(ref, got) {
						t.Fatalf("fault at insert access %d left %v, want %v", k-lo, got, ref)
					}
					rec := MustOpen(Config{Key: key, Seed: 7, RowsPerBlock: r})
					if err := rec.Recover(openTestLog(t, walPath, key, wal.Options{})); err != nil {
						t.Fatal(err)
					}
					if got := snapshotRows(t, rec, "ft"); rowsDiffer(ref, got) {
						t.Fatalf("fault at insert access %d: journal recovers %v, want %v", k-lo, got, ref)
					}
				}
			})
		}
	}
}
