package bench

import (
	"fmt"
	"time"

	"oblidb/internal/core"
	"oblidb/internal/enclave"
	"oblidb/internal/storage"
	"oblidb/internal/table"
	"oblidb/internal/workload"
)

// This file measures block packing (DESIGN.md §12): the same oblivious
// operations at R = 1 (the paper's one-record-per-block geometry) versus
// packed geometries, where every full-table pass costs one AEAD
// open/seal per sealed block instead of per row.

// packingGeometries lists the packing factors the figure sweeps: the
// paper geometry, two fixed intermediate points, and the engine's
// ~4 KiB default for the workload schema.
func packingGeometries() []int {
	def := storage.DefaultRowsPerBlock(workload.Schema())
	gs := []int{1, 4, 16}
	for _, g := range gs {
		if g == def {
			return gs
		}
	}
	if def > 1 {
		gs = append(gs, def)
	}
	return gs
}

// packedTable builds and fills a flat workload table at geometry r.
func packedTable(e *enclave.Enclave, name string, rows, r int) (*storage.Flat, error) {
	f, err := storage.NewFlatGeom(e, name, workload.Schema(), rows, r)
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if err := f.InsertFast(workload.NewRow(int64(i))); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// packingTimes is the per-operation wall time of one geometry.
type packingTimes struct {
	scan, sel, insert time.Duration
}

// measurePacking times the scan / select / insert trio at geometry r.
// The select runs through the engine (stats scan + planner + chosen
// operator), exactly the full-table select path queries take; the insert
// is the oblivious full-scan variant (§3.1).
func measurePacking(o Options, rows, r int) (packingTimes, error) {
	var pt packingTimes

	// Flat scan: the read pass under every aggregate and stats scan.
	e := enclave.MustNew(enclave.Config{Seed: o.seed()})
	f, err := packedTable(e, fmt.Sprintf("pack.r%d", r), rows, r)
	if err != nil {
		return pt, err
	}
	reps := 5
	d, err := timedN(reps, func() error {
		return f.Scan(func(int, table.Row, bool) error { return nil })
	})
	if err != nil {
		return pt, err
	}
	pt.scan = d

	// Engine select (~10% selectivity): stats scan + planner + operator.
	db := core.MustOpen(core.Config{Seed: o.seed(), RowsPerBlock: r})
	if err := workload.Setup(db, "t", core.KindFlat, rows); err != nil {
		return pt, err
	}
	tab, err := db.Table("t")
	if err != nil {
		return pt, err
	}
	cut := int64(rows / 10)
	d, err = timedN(reps, func() error {
		_, err := db.SelectTable(tab, func(rw table.Row) bool { return rw[0].AsInt() < cut }, core.SelectOptions{})
		return err
	})
	if err != nil {
		return pt, err
	}
	pt.sel = d

	// Oblivious insert: one full read+rewrite pass over the table.
	half, err := storage.NewFlatGeom(e, fmt.Sprintf("pack.ins.r%d", r), workload.Schema(), rows, r)
	if err != nil {
		return pt, err
	}
	for i := 0; i < rows/2; i++ {
		if err := half.InsertFast(workload.NewRow(int64(i))); err != nil {
			return pt, err
		}
	}
	d, err = timedN(reps, func() error { return half.Insert(workload.NewRow(0)) })
	if err != nil {
		return pt, err
	}
	pt.insert = d
	return pt, nil
}

// RunPacking is the "packing" figure: scan, select, and oblivious-insert
// wall time at each geometry, with the speedup over R = 1.
func RunPacking(o Options) error {
	rows := o.n(100000)
	o.printf("Block packing: R rows per sealed block (%d-row table, %d B records)\n",
		rows, workload.Schema().RecordSize())
	times := map[int]packingTimes{}
	for _, r := range packingGeometries() {
		pt, err := measurePacking(o, rows, r)
		if err != nil {
			return fmt.Errorf("packing R=%d: %w", r, err)
		}
		times[r] = pt
	}
	base := times[1]
	tp := newTable("R", "block bytes", "scan", "select", "insert", "scan speedup", "select speedup")
	for _, r := range packingGeometries() {
		pt := times[r]
		tp.addf(r, workload.Schema().BlockSize(r), pt.scan, pt.sel, pt.insert,
			ratio(base.scan, pt.scan), ratio(base.sel, pt.sel))
	}
	tp.render(o.Out)
	o.printf("  (R=1 is the paper's geometry; the default packs ~4 KiB of plaintext per\n")
	o.printf("   sealed block, dividing AEAD calls, trace events, and allocations per\n")
	o.printf("   full-table pass by R — §3's block is the sealed unit, not the row)\n\n")
	return nil
}
